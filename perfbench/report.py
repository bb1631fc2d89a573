"""Print every benchmark metric for every workload, side by side.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 35

Runs ``run.py --trace 1`` once per workload, one after another, so each
workload reports its end-to-end metrics (untraced passes), its per-layer
metrics (one traced pass) and its output checks.  Exits 1 if any check
failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    values, checks = {}, []
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, _ = line.split(" ", 3)
            values[name] = float(value)
        elif line.startswith("check failed:"):
            checks.append(line)
    result = json.loads(proc.stdout.splitlines()[-1])
    return values, checks, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = list(WORKLOADS)
    results = {w: run_workload(w, args.seed, args.seconds) for w in names}

    print(f"seed {args.seed}, {args.seconds:g} s per workload")
    print(f"{'metric':<48} {'unit':<9}" + "".join(f"{w:>16}" for w in names))
    for section in ("end_to_end", "per_layer"):
        print(f"-- {section}")
        for m in spec[section]:
            cells = "".join(f"{results[w][0][m['name']]:>16.6g}" for w in names)
            print(f"{m['name']:<48} {m['unit']:<9}{cells}")
    failed = False
    for w in names:
        values, checks, result = results[w]
        print(f"{w}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}")
        for line in checks:
            print(f"  {line}")
        failed |= not result["correct"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
