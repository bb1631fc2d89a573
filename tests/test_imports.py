"""Source hygiene: no unused module-level imports under src/ or tests/,
one literal for the critical derivative size and no per-element math.log
under src/, one theta source and one theta chain, no import of the branch
machinery in measures.py, and the CLI starts without loading scipy,
numpy.polynomial or any analysis module: each experiment kind loads its
own, and the package root resolves its names lazily."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fiberdyn

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as a Name anywhere in the module,
    the root of an attribute chain included.  `from __future__` imports are
    skipped.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_checker_sees_unused_and_used_names():
    src = ("import os\nimport numpy as np\nimport os.path as osp\n"
           "from a import b, c as d\nnp.zeros(1)\nprint(d)\n")
    assert unused_imports(src) == [(1, "os"), (3, "osp"), (4, "b")]


def test_no_unused_module_imports():
    # a package's __init__ imports names to re-export them
    files = [path for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"]
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_one_log_rule_in_src():
    # every orbit kernel takes log |f'| from maps.log_abs, which holds the
    # one critical size
    texts = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    assert texts
    assert sum(text.count("1e-300") for text in texts) == 1
    for pattern in ("map(math.log", "frompyfunc(math.log"):
        assert not any(pattern in text for text in texts), pattern


def theta_steps(source):
    """Lines that step theta by the base map outside `base_orbit`: a
    `.base(` call, or wrap(d * ...) / d * ... % 1.0 with d or base_degree."""
    degree = r"\b(?:\w+\.)*(?:d|base_degree)\s*\*(?!\*)"
    pattern = re.compile(r"\.base\(|wrap\(\s*" + degree
                         + r"|" + degree + r"[^\n%]*%\s*1\.0")
    return [line.strip() for line in source.splitlines()
            if pattern.search(line)]


def test_checker_sees_theta_steps():
    src = ("th = skew.base(th)\nT = wrap(d * T)\nt = d * t % 1.0\n"
           "u = wrap(skew.base_degree * u)\nv = wrap(v + w * d ** (m - k))\n"
           "t = float(z[0]) % 1.0\nt = round * t % 1.0\n")
    assert theta_steps(src) == ["th = skew.base(th)", "T = wrap(d * T)",
                                "t = d * t % 1.0",
                                "u = wrap(skew.base_degree * u)"]


def test_one_theta_source():
    # clouds and orbits take theta from SkewProduct.base_orbit; only maps.py
    # applies the base map
    found = [f"{path.relative_to(ROOT)}: {line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "maps.py"
             for line in theta_steps(path.read_text())]
    assert found == []


def test_one_scalar_pullback_caller():
    # independent pullbacks go through bisect_preimages; only branches.py
    # (track_branch and the narrow path of bisect_preimages) calls the
    # scalar rule
    found = [str(path.relative_to(ROOT))
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "branches.py"
             and "bisect_preimage(" in path.read_text()]
    assert found == []


def test_one_theta_chain():
    # theta lanes cross a block in SkewProduct.theta_blocks alone: only
    # maps.py names _base_rows, and no module steps a cloud by a block
    # index (`.iterates(state, j, k)`)
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for name in ("_base_rows", ".iterates(")
             if name in path.read_text()
             and not (name == "_base_rows" and path.name == "maps.py")]
    assert found == []


def imported_modules(source):
    """Every module an import statement names, at any depth: `import a.b`
    gives "a.b", `from .a import b` gives ".a" and `from . import c`
    gives ".c"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules = ([node.module] if node.module
                       else [alias.name for alias in node.names])
            found.update("." * node.level + name for name in modules)
    return found


def test_checker_sees_nested_imports():
    src = ("import os\n"
           "def f():\n"
           "    from .expansion import g\n"
           "    if True:\n"
           "        import fiberdyn.branches as b\n"
           "from . import maps\n")
    assert imported_modules(src) == {"os", ".expansion", "fiberdyn.branches",
                                     ".maps"}


def test_measures_imports_neither_expansion_nor_branches():
    # the binned measures and components load no branch machinery, not
    # even inside a function
    names = imported_modules(
        (ROOT / "src" / "fiberdyn" / "measures.py").read_text())
    found = sorted(name for name in names
                   if name.rsplit(".", 1)[-1] in ("expansion", "branches"))
    assert found == []


def fresh_interpreter(code, *args):
    """stdout of `code` run in a new interpreter that imports src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


START_UP = ("import sys\n"
            "import fiberdyn.experiments.cli\n"
            "from fiberdyn.maps import family_names, make_system\n"
            "for family in family_names():\n"
            "    make_system(family)\n")

LOADED = "print(*sorted(m for m in sys.modules if m.startswith('fiberdyn.')))\n"

# what every CLI call loads
CLI_MODULES = {"fiberdyn.errors", "fiberdyn.maps", "fiberdyn.rng",
               "fiberdyn.experiments", "fiberdyn.experiments.config",
               "fiberdyn.experiments.runner", "fiberdyn.experiments.cli"}


def test_cli_start_up_leaves_scipy_integrate_unloaded():
    # only density_compare integrates, and no experiment kind calls it
    code = START_UP + "print('scipy.integrate' in sys.modules)\n"
    assert fresh_interpreter(code).split() == ["False"]


def test_cli_start_up_leaves_numpy_polynomial_unloaded():
    # the two-well connector is stored as literals; only the test that
    # re-derives it loads numpy.polynomial
    code = START_UP + "print('numpy.polynomial' in sys.modules)\n"
    assert fresh_interpreter(code).split() == ["False"]


def test_cli_start_up_loads_no_analysis_module():
    assert set(fresh_interpreter(START_UP + LOADED).split()) == CLI_MODULES


@pytest.mark.parametrize("argv, modules", [
    (["ftle", "--n", "10", "--samples", "1"], "expansion branches"),
    (["ay_decay", "--samples", "1000", "--n-values", "5", "--delta-count",
      "1", "--delta-min", "0.1", "--delta-max", "0.1"], "expansion branches"),
    (["branch", "--n", "5"], "branches"),
    (["census", "--n", "2"], "branches"),
    (["pliss", "--n", "20"], "hyptimes branches"),
    (["curve", "--family", "viana", "--iterations", "2", "--curves", "1",
      "--samples", "2"], "hyptimes branches"),
    (["probe", "--family", "viana", "--k", "0", "--grid", "2"],
     "hyptimes branches"),
    (["acim", "--samples", "10", "--n", "10"], "measures"),
    (["components", "--probes", "100", "--n", "10", "--bins", "8"],
     "measures"),
    (["markov", "--depth", "0", "--seeds", "10", "--orbit-len", "2",
      "--probes", "2"], "markov branches"),
], ids=lambda v: v[0] if isinstance(v, list) else v.replace(" ", "+"))
def test_each_kind_loads_its_own_modules(tmp_path, argv, modules):
    code = ("import sys\n"
            "from fiberdyn.experiments.cli import main\n"
            "print(main(sys.argv[1:]))\n" + LOADED)
    *_, rc, loaded = fresh_interpreter(
        code, *argv, "--out", str(tmp_path / "o")).splitlines()
    assert rc == "0"
    assert set(loaded.split()) == CLI_MODULES | {
        f"fiberdyn.{name}" for name in modules.split()}


def test_root_names_resolve_in_their_home_modules(monkeypatch):
    for name, module in fiberdyn._EXPORTS.items():
        home = importlib.import_module(f"fiberdyn.{module}")
        assert getattr(fiberdyn, name) is getattr(home, name), name
        assert name in dir(fiberdyn) and name in fiberdyn.__all__, name
    with pytest.raises(AttributeError, match="no_such_name"):
        fiberdyn.no_such_name
    # uncached: the root sees what a patch or a tracer puts in the home
    monkeypatch.setattr(fiberdyn.expansion, "ftle_fiber", len)
    assert fiberdyn.ftle_fiber is len
