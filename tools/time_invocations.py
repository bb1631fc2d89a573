"""Time each repeated benchmark invocation of one or two fiberdyn source trees.

Run from the repository root:

    python3 tools/time_invocations.py ensemble PARENT_SRC CHANGE_SRC --rounds 6

Each source tree is a ``src`` directory (or a checkout that holds one).
Every round starts one fresh interpreter per tree, with one native
thread; the trees alternate A B, B A, A B, ... so that neither always
runs first.  Each interpreter calls ``fiberdyn.experiments.cli.main`` on
the workload's invocations (``perfbench/workloads.py``) in list order,
the way the benchmark does: one untimed pass of all of them, the ``once``
ones first, so that lazy imports and the heap settle, then one timed
pass of the repeated ones.  Per timed invocation it records the process
CPU time and the minor page faults (``ru_minflt``) of the call; at the
end it reads the process's peak resident set (``ru_maxrss``), which
matches the benchmark's ``peak_rss_mb`` as far as the program goes.
In each round, one more fresh interpreter per tree runs the benchmark's
own set-up code (``SETUP_CODE`` of ``perfbench/run.py``: import the CLI,
build the workload's systems) and reports its CPU time.  The table gives
each invocation's best CPU time and median fault count over the rounds,
the sum of the best times, each tree's median set-up CPU time in ms and
its median peak resident set in MB.  The program seeds derive from
workload seed 1.
Outputs are not checked; an exit code other than the expected one is an
error.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare_outputs import child_env, source_dir
from run import SETUP_CODE
from workloads import WORKLOADS, families

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD_CODE = """\
import contextlib, gc, io, json, resource, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, argv_for, invocation_seeds
from fiberdyn.experiments import cli
invocations = WORKLOADS[sys.argv[2]]
seeds = invocation_seeds(1, len(invocations))
rows = []
with tempfile.TemporaryDirectory() as tmp:
    # the untimed pass runs the once invocations first, as the benchmark
    # does; the timed pass skips them
    order = sorted(range(len(invocations)),
                   key=lambda i: not invocations[i].once)
    for timed in (False, True):
        for i in order:
            inv, seed = invocations[i], seeds[i]
            if timed and inv.once:
                continue
            argv = argv_for(inv, seed, Path(tmp) / f"{int(timed)}-{i:02d}")
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                c0 = time.process_time()
                try:
                    code = cli.main(argv)
                except SystemExit as ex:
                    code = ex.code if isinstance(ex.code, int) else 2
                cpu = time.process_time() - c0
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            rows.append([i, timed, code, cpu, faults])
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([rows, maxrss]))
"""


def run_tree(src, workload):
    """([(invocation index, timed, exit code, CPU seconds, minor faults)],
    ru_maxrss in KiB) of one untimed and one timed pass in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD_CODE, str(PERFBENCH),
                           workload], env=child_env(src),
                          capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(src, fams):
    """CPU seconds of the benchmark's set-up code for the families fams,
    in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), *fams],
                          env=child_env(src), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: set-up failed: "
                         f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def time_trees(trees, workload, rounds):
    """Per tree, ({invocation index: ([CPU seconds], [minor faults])},
    [ru_maxrss in KiB], [set-up CPU seconds])."""
    invocations = WORKLOADS[workload]
    fams = families(invocations)
    samples = [({}, [], []) for _ in trees]
    order = list(range(len(trees)))
    for r in range(rounds):
        for k in (order if r % 2 == 0 else order[::-1]):
            tree = trees[k]
            rows, maxrss = run_tree(tree, workload)
            for i, timed, code, cpu, faults in rows:
                if code != invocations[i].expect_exit:
                    raise SystemExit(f"{tree}: invocation {i} "
                                     f"({' '.join(invocations[i].argv)}) "
                                     f"exited {code}")
                if timed:
                    cpus, flts = samples[k][0].setdefault(i, ([], []))
                    cpus.append(cpu)
                    flts.append(faults)
            samples[k][1].append(maxrss)
            samples[k][2].append(setup_seconds(tree, fams))
    return samples


def table(samples, workload):
    """Lines of the table: per invocation and tree, the best CPU time in ms
    and the median minor faults; then the sums of the best times, the
    median set-up CPU times in ms and the median peak resident sets in
    MB."""
    invocations = WORKLOADS[workload]
    indices = sorted(samples[0][0])
    labels = {i: " ".join(invocations[i].argv) for i in indices}
    width = max(map(len, labels.values()))
    head = "".join(f" {n + ' cpu ms':>10} {n + ' minflt':>9}"
                   for n in "AB"[:len(samples)])
    lines = [f"{'invocation':<{width}}{head}"]
    totals = [0.0] * len(samples)
    for i in indices:
        cells = ""
        for k, (per_inv, *_) in enumerate(samples):
            cpus, flts = per_inv[i]
            totals[k] += min(cpus)
            cells += f" {1e3 * min(cpus):10.2f} {statistics.median(flts):9.0f}"
        lines.append(f"{labels[i]:<{width}}{cells}")
    lines.append(f"{'total':<{width}}"
                 + "".join(f" {1e3 * t:10.2f} {'':9}" for t in totals))
    lines.append(f"{'setup ms':<{width}}"
                 + "".join(f" {1e3 * statistics.median(setup):10.2f} {'':9}"
                           for *_, setup in samples))
    lines.append(f"{'peak rss MB':<{width}}"
                 + "".join(f" {statistics.median(rss) / 1024:10.2f} {'':9}"
                           for _, rss, _ in samples))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("trees", nargs="+", metavar="SRC",
                   help="one or two source trees (A, then B)")
    p.add_argument("--rounds", type=int, default=6)
    args = p.parse_args(argv)
    if len(args.trees) > 2 or args.rounds < 1:
        p.error("need one or two source trees and --rounds >= 1")
    trees = [source_dir(t) for t in args.trees]
    for name, tree in zip("AB", trees):
        print(f"{name}: {tree}")
    samples = time_trees(trees, args.workload, args.rounds)
    for line in table(samples, args.workload):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
