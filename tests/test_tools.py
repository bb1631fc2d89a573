"""The measuring tools under tools/ still run, and the output comparison
sees a one-byte change, a misstated digest and reordered outputs."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def test_time_invocations_one_round(monkeypatch):
    proc = subprocess.run([sys.executable, str(TOOLS / "time_invocations.py"),
                           "pullback", str(ROOT / "src"), "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    repeated = [" ".join(inv.argv) for inv in WORKLOADS["pullback"]
                if not inv.once]
    lines = proc.stdout.splitlines()
    assert lines[0] == f"A: {ROOT / 'src'}"
    rows = lines[2:]
    assert [row[:len(argv)] for row, argv in zip(rows, repeated)] == repeated
    assert len(rows) == len(repeated) + 3 and rows[-3].startswith("total")
    # the set-up CPU time and the peak resident set sit in the CPU column;
    # set-up imports numpy and fiberdyn in a fresh interpreter
    name, ms = rows[-2].rsplit(None, 1)
    assert name == "setup ms" and 1 < float(ms) < 10**5
    name, mb = rows[-1].rsplit(None, 1)
    assert name == "peak rss MB" and 10 < float(mb) < 10**4
    assert (len(rows[-1].rstrip()) == len(rows[-2].rstrip())
            == len(rows[-3].rstrip()))


def test_source_dir_accepts_a_checkout_and_its_src(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from compare_outputs import source_dir
    assert source_dir(ROOT) == source_dir(ROOT / "src") == ROOT / "src"


def test_compare_reports_one_changed_byte(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import compare_outputs
    from workloads import Invocation
    argv = ("branch", "--family", "logistic", "--n", "5")
    monkeypatch.setattr(compare_outputs, "WORKLOADS",
                        {"one": (Invocation(argv),)})
    src = ROOT / "src"
    assert compare_outputs.compare(src, src, [1]) == (0, 2, 2)
    # a copy whose r_history.csv header differs in one byte
    changed = tmp_path / "src"
    shutil.copytree(src / "fiberdyn", changed / "fiberdyn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runner = changed / "fiberdyn" / "experiments" / "runner.py"
    text = runner.read_text()
    assert text.count('["i", "r"]') == 1
    runner.write_text(text.replace('["i", "r"]', '["i", "R"]'))
    capsys.readouterr()
    assert compare_outputs.main([str(src), str(changed),
                                 "--seeds", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"one seed 1 [{' '.join(argv)}]: r_history.csv differs",
        "1 differences (2 data files, 2 runs)"]


def _copy_with(tmp_path, old, new):
    """A copy of the fiberdyn sources whose runner.py has old, which it
    holds once, replaced by new."""
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "fiberdyn", changed / "fiberdyn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runner = changed / "fiberdyn" / "experiments" / "runner.py"
    text = runner.read_text()
    assert text.count(old) == 1
    runner.write_text(text.replace(old, new))
    return changed


@pytest.mark.parametrize("old, new, reports", [
    # the change's runner digests one byte more than it writes
    ("hashlib.sha256(data)", 'hashlib.sha256(data + b"x")',
     ["change manifest entry branch.json does not match its file",
      "change manifest entry r_history.csv does not match its file"]),
    # the change's manifest lists the same files in reverse order
    ("_RUNNERS[cfg.kind](cfg, system).items()",
     "reversed(_RUNNERS[cfg.kind](cfg, system).items())",
     ["manifest outputs ['branch.json', 'r_history.csv'] -> "
      "['r_history.csv', 'branch.json']"]),
], ids=["wrong digest", "reversed outputs"])
def test_compare_reports_a_misstating_manifest(monkeypatch, tmp_path, capsys,
                                               old, new, reports):
    monkeypatch.syspath_prepend(str(TOOLS))
    import compare_outputs
    from workloads import Invocation
    argv = ("branch", "--family", "logistic", "--n", "5")
    monkeypatch.setattr(compare_outputs, "WORKLOADS",
                        {"one": (Invocation(argv),)})
    changed = _copy_with(tmp_path, old, new)
    capsys.readouterr()
    assert compare_outputs.main([str(ROOT / "src"), str(changed),
                                 "--seeds", "1"]) == 1
    where = f"one seed 1 [{' '.join(argv)}]"
    assert capsys.readouterr().out.splitlines() == [
        *(f"{where}: {line}" for line in reports),
        f"{len(reports)} differences (2 data files, 2 runs)"]
