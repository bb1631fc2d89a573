"""fiberdyn benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload pullback --seed 1 --seconds 30 --trace 0

The run drives the public CLI in-process, calling
``fiberdyn.experiments.cli.main(argv)`` once per experiment, as a closed
loop: one client, one process, one thread, and each experiment starts only
after the previous one returns.  The workload's ``once`` invocations run
first, one time each.  Then the run repeats the other invocations as a list
until ``--seconds`` have passed (at least once), and reports each one's
fastest repeat.  Every output is checked.  Set-up time is measured
separately, in fresh interpreters.

``--trace 1`` adds one traced pass of the repeated list (see
``tracing.py``) after the untraced ones.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics are the ``end_to_end`` set of BENCHMARK.json with
``--trace 0`` and its ``per_layer`` set with ``--trace 1``.  Earlier lines
show the run environment, the seeds and every metric the run computed.
"""

import os

# Native thread pools are pinned before numpy loads: the benchmark is a
# single-threaded closed loop.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

import reference
from tracing import Tracer
from workloads import WORKLOADS, argv_for, families, inspect, invocation_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh-interpreter set-up samples per run, spread over it.
SETUP_SAMPLES = 5

# Rounds of the reference kernels: one after a pass while they have taken
# less than REF_SHARE of the time the passes took, and at least REF_ROUNDS.
REF_SHARE = 0.2
REF_ROUNDS = 8

# Experiment kinds whose summed time is reported on its own.
TIMED_KINDS = ("ftle", "census", "markov", "acim", "components", "ay_decay")

# Result-quality values; each comes from one invocation of one workload and
# reads 0 on the others.
QUALITY = ("lyap_err", "acim_l1", "base_marginal_l1", "markov_cert_failures")

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.process_time()
import fiberdyn.experiments.cli
from fiberdyn.maps import make_system
for family in sys.argv[2:]:
    make_system(family)
print(repr(time.process_time() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run or cannot report."""


@dataclass
class Outcome:
    index: int
    seconds: float
    cpu_seconds: float
    exit_code: int
    problems: list
    digests: dict
    quality: dict


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(fams):
    """CPU seconds to import fiberdyn and build the systems in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *fams],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def run_pass(cli, invocations, seeds, indices, pass_dir, tracer=None):
    """Run the invocations at ``indices`` once, in order; check each output
    after it returns."""
    outcomes = []
    for i in indices:
        inv = invocations[i]
        out_dir = pass_dir / f"{i:02d}-{inv.kind}"
        argv = argv_for(inv, seeds[i], out_dir)
        err = io.StringIO()
        if tracer is not None:
            tracer.experiment = i
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(argv)
            except SystemExit as ex:      # argparse rejects bad arguments
                code = ex.code if isinstance(ex.code, int) else 2
            seconds = time.perf_counter() - t0
            cpu_seconds = time.process_time() - c0
        problems, digests, quality = inspect(inv, code, out_dir,
                                             err.getvalue())
        outcomes.append(Outcome(i, seconds, cpu_seconds, code, problems,
                                digests, quality))
    shutil.rmtree(pass_dir, ignore_errors=True)
    return outcomes


def import_program():
    if not (SRC / "fiberdyn" / "__init__.py").is_file():
        raise BenchError(f"no fiberdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fiberdyn
    from fiberdyn.experiments import cli
    if SRC.resolve() not in Path(fiberdyn.__file__).resolve().parents:
        raise BenchError(f"fiberdyn imported from {fiberdyn.__file__}, "
                         f"not from {SRC}")
    return cli


def run(args):
    cli = import_program()
    invocations = WORKLOADS[args.workload]
    seeds = invocation_seeds(args.seed, len(invocations))
    once = [i for i, inv in enumerate(invocations) if inv.once]
    repeated = [i for i, inv in enumerate(invocations) if not inv.once]
    env = environment()
    print("env", json.dumps(env, sort_keys=True))
    print("seed", args.seed, "invocation_seeds", json.dumps(seeds))

    # Set-up samples are spread over the run like the passes are, so that
    # they see the same machine; the median is reported.  A pass starts only
    # if one more of the slowest so far still ends within --seconds.
    fams = families(invocations)
    setups, passes, traced, tracer = [], [], None, None
    run_dir = OUT / f"run-{os.getpid()}"
    start = time.perf_counter()
    slowest = 0.0
    rounds = []
    try:
        setups.append(setup_seconds(fams))
        once_outcomes = run_pass(cli, invocations, seeds, once,
                                 run_dir / "once")
        while not passes or (time.perf_counter() - start + slowest
                             < args.seconds):
            t0 = time.perf_counter()
            elapsed = t0 - start
            if len(setups) < 1 + SETUP_SAMPLES * elapsed / args.seconds:
                setups.append(setup_seconds(fams))
            passes.append(run_pass(cli, invocations, seeds, repeated,
                                   run_dir / f"pass{len(passes)}"))
            if sum(map(sum, rounds)) < REF_SHARE * sum(
                    o.cpu_seconds for p in passes for o in p):
                rounds.append(reference.sample_round())
            slowest = max(slowest, time.perf_counter() - t0)
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_seconds(fams))
        while len(rounds) < REF_ROUNDS:
            rounds.append(reference.sample_round())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, invocations, seeds, repeated,
                                  run_dir / "traced", tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb}
    # Each repeated invocation's time is its fastest repeat in the run.  On
    # a shared machine the same code runs up to ~2x slower while other
    # tenants load it, in phases from under a second to minutes; a short
    # invocation repeated dozens of times meets a quiet moment in every run.
    # cpu_s and the per-kind times count CPU seconds, wall_s elapsed ones.
    def fastest(attr):
        return {i: min(getattr(p[k], attr) for p in passes)
                for k, i in enumerate(repeated)}
    cpu = fastest("cpu_seconds")
    metrics["cpu_s"] = sum(cpu.values())
    # cost_ref is cpu_s in units of the reference work (reference.py) timed
    # in the same run: a slow phase of the machine slows both, a change to
    # the program only cpu_s.
    metrics["ref_s"] = reference.ref_seconds(rounds)
    metrics["cost_ref"] = metrics["cpu_s"] / metrics["ref_s"]
    metrics["wall_s"] = sum(fastest("seconds").values())
    for kind in TIMED_KINDS:
        metrics[f"{kind}_s"] = sum(t for i, t in cpu.items()
                                   if invocations[i].kind == kind)
    metrics["once_s"] = sum(o.cpu_seconds for o in once_outcomes)
    first = once_outcomes + passes[0]
    metrics["failed_frac"] = sum(
        1 for o in first if o.exit_code != 0 or o.problems) / len(first)
    for name in QUALITY:
        metrics[name] = next((o.quality[name] for o in first
                              if name in o.quality), 0)
    if traced is not None:
        metrics.update(tracer.layer_metrics())
        metrics["trace.overhead_s"] = (sum(o.seconds for o in traced)
                                       - metrics["wall_s"])
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.csv.gz")

    executions = [o for p in [once_outcomes] + passes + ([traced] if traced
                                                         else [])
                  for o in p]
    problems = [f"invocation {o.index} ({' '.join(invocations[o.index].argv)}):"
                f" {msg}" for o in executions for msg in o.problems]
    for i, inv in enumerate(invocations):
        runs = {json.dumps(o.digests, sort_keys=True)
                for o in executions if o.index == i}
        if len(runs) > 1:
            problems.append(f"invocation {i} ({' '.join(inv.argv)}): data "
                            "file digests differ between repeats")
    failed = sum(1 for o in executions if o.problems)
    return metrics, problems, len(executions), failed


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics, problems, attempted, failed = run(args)
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        declared = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        undeclared = sorted(set(metrics) - set(units))
        if missing or undeclared:
            raise BenchError(f"metrics missing {missing}, undeclared "
                             f"{undeclared}")
    except (BenchError, ImportError, OSError, ValueError, KeyError) as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 2
    for msg in problems:
        print("check failed:", msg)
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
