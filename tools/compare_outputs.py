"""Compare the benchmark invocations' outputs of two fiberdyn source trees.

Run from the repository root:

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC --seeds 1,5,77

Each source tree is a ``src`` directory (or a checkout that holds one).
For every invocation of every workload in ``perfbench/workloads.py``, at
the program seeds that ``invocation_seeds`` derives from each workload
seed, the CLI runs once per tree, each time in a fresh interpreter with
one native thread; the two trees' runs of an invocation run at once.
Every data file (each output file but ``manifest.json``, whose timings
differ from run to run) whose sha256 differs, or that only one tree
writes, is printed, and so is every invocation whose exit code or
manifest ``status`` or ``error`` differs; then the count.  The exit
status is 1 on any difference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, argv_for, invocation_seeds  # noqa: E402


def source_dir(path):
    path = Path(path).resolve()
    return path / "src" if (path / "src" / "fiberdyn").is_dir() else path


def child_env(src):
    """Environment of a fresh interpreter that imports fiberdyn from src
    and runs one native thread."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update((var, "1") for var in ("OMP_NUM_THREADS",
                                      "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS"))
    return env


def run_cli(src, argv):
    """Exit code, {file name: sha256} of the data files and the manifest's
    {"status", "error"} (None where absent) of one run."""
    proc = subprocess.run([sys.executable, "-m", "fiberdyn.experiments.cli",
                           *argv], env=child_env(src), capture_output=True,
                          timeout=600)
    out = Path(argv[argv.index("--out") + 1])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.glob("*")) if p.name != "manifest.json"}
    manifest = out / "manifest.json"
    record = json.loads(manifest.read_text()) if manifest.exists() else {}
    return proc.returncode, files, {key: record.get(key)
                                    for key in ("status", "error")}


def compare(parent, change, seeds):
    """Print each differing exit code, manifest status or error, or data
    file; return the number of differences, of runs and of data files
    compared."""
    diffs = runs = files = 0
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for name, invocations in WORKLOADS.items():
            for wseed in seeds:
                pseeds = invocation_seeds(wseed, len(invocations))
                for i, (inv, pseed) in enumerate(zip(invocations, pseeds)):
                    (code_a, files_a, rec_a), (code_b, files_b, rec_b) = (
                        pool.map(run_cli, (parent, change), [
                            argv_for(inv, pseed, Path(tmp) /
                                     f"{name}-{wseed}-{i}-{side}")
                            for side in range(2)]))
                    where = f"{name} seed {wseed} [{' '.join(inv.argv)}]"
                    lines = [f"{where}: exit code {code_a} -> {code_b}"
                             ] if code_a != code_b else []
                    lines += [f"{where}: manifest {key} {rec_a[key]!r} -> "
                              f"{rec_b[key]!r}" for key in rec_a
                              if rec_a[key] != rec_b[key]]
                    names = sorted(files_a.keys() | files_b.keys())
                    lines += [f"{where}: {f} differs" for f in names
                              if files_a.get(f) != files_b.get(f)]
                    for line in lines:
                        print(line, flush=True)
                    diffs += len(lines)
                    runs += 2
                    files += len(names)
    return diffs, runs, files


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--seeds", default="1,5,77",
                   help="comma-separated workload seeds")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    diffs, runs, files = compare(source_dir(args.parent_src),
                                 source_dir(args.change_src), seeds)
    print(f"{diffs} differences ({files} data files, {runs} runs)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
