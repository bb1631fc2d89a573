"""Workload lists and output checks of the fiberdyn benchmark.

A workload is a fixed list of CLI invocations.  The benchmark adds
``--seed`` (derived from its own seed) and ``--out`` to each; the program
sees nothing else.  Every invocation's output is checked after it returns,
outside the timed region.
"""

import csv
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

LOG2 = math.log(2.0)

# Domain lengths of the interval families whose census is checked.
DOMAIN_LENGTH = {"logistic": 1.0, "twowell": 1.0}

# Empirical ergodic-component counts the acceptance suite pins.
COMPONENT_COUNT = {"logistic": 1, "twowell": 2}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments without --seed/--out, and its exit code.

    A ``once`` invocation runs a single time per benchmark run, before the
    timed repeats: it takes seconds, so it cannot be repeated often enough
    for a steady time, but its output checks or its known defect must show.
    """

    argv: tuple
    expect_exit: int = 0
    once: bool = False

    @property
    def kind(self):
        return self.argv[0]

    @property
    def family(self):
        return self.argv[self.argv.index("--family") + 1]


def _inv(text, expect_exit=0, once=False):
    return Invocation(tuple(text.split()), expect_exit, once)


# Every repeated invocation takes well under a second, so that a run repeats
# it dozens of times and its fastest repeat is steady on a shared machine.
WORKLOADS = {
    # One long scalar Python loop per sample: expansion.ftle_fiber/ftle_full
    # and scalar map calls do almost all the work.  The default logistic
    # ftle (n = 1e6, 20 samples) runs once for its log 2 check.
    "scalar-orbits": (
        _inv("ftle --family logistic", once=True),
        _inv("ftle --family logistic --n 50000 --samples 2"),
        _inv("ftle --family viana --n 10000 --samples 2"),
        _inv("pliss --family logistic --n 1000"),
    ),
    # bisect_preimage recomposes maps from the start on every step; the
    # two-well map costs ~200x the logistic map per scalar evaluation, so
    # fewer evaluations and cheaper evaluations show differently.  Depth-2
    # markov runs once, so that its known constancy failures keep showing.
    "pullback": (
        _inv("markov --family logistic --depth 2", once=True),
        _inv("census --family logistic --n 8"),
        _inv("census --family twowell --n 2"),
        _inv("markov --family logistic --depth 1 --seeds 200"),
        _inv("branch --family logistic --n 20"),
    ),
    # Arrays of 1e3-1e4 points per map call, skew-product base orbits, and
    # many short runs, so runner I/O and hashing take their largest share.
    # The default viana probe fails today (NotHyperbolicLike, exit 1); it
    # stays so that the known defect keeps showing.
    "ensemble": (
        _inv("acim --family logistic"),
        _inv("acim --family viana --samples 1000"),
        _inv("components --family logistic --n 2000"),
        _inv("components --family twowell --n 2000"),
        _inv("components --family viana --n 2000"),
        _inv("ay_decay --family logistic --samples 10000"),
        _inv("ay_decay --family viana --samples 10000"),
        _inv("curve --family viana --iterations 50 --curves 5 --samples 256"),
        _inv("probe --family viana", expect_exit=1),
        _inv("probe --family viana --theta 0.3 --x 0.5 --k 3 "
             "--delta-tilde 0.1"),
    ),
}


def invocation_seeds(workload_seed, count):
    """Per-invocation program seeds, a pure function of the workload seed."""
    rng = random.Random(workload_seed)
    return [rng.randrange(2**63) for _ in range(count)]


def argv_for(inv, seed, out_dir):
    return [*inv.argv, "--seed", str(seed), "--out", str(out_dir)]


def families(invocations):
    return sorted({inv.family for inv in invocations})


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_digests(out_dir, problems):
    """sha256 per data file, after checking the manifest against the files."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digests = {}
    for entry in manifest["outputs"]:
        path = out_dir / entry["name"]
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != entry["sha256"]:
            problems.append(f"{entry['name']}: manifest digest mismatch")
        digests[entry["name"]] = actual
    return manifest, digests


def _arcsine_l1(rows):
    """L1 distance of a 1-d measure to the density 1/(pi sqrt(x(1-x)))."""
    cdf = lambda x: 2.0 / math.pi * math.asin(math.sqrt(min(max(x, 0.0), 1.0)))
    return sum(abs(float(r["weight"])
                   - (cdf(float(r["bin_hi"])) - cdf(float(r["bin_lo"]))))
               for r in rows)


def _base_marginal_l1(rows, grid):
    """L1 distance of the theta-marginal of a 2-d measure to uniform."""
    nb, nf = grid["base_bins"], grid["fiber_bins"]
    marginal = [0.0] * nb
    for r in rows:
        marginal[int(r["flat_index"]) // nf] += float(r["weight"])
    return sum(abs(m - 1.0 / nb) for m in marginal)


def inspect(inv, exit_code, out_dir, stderr_text):
    """Check one invocation's result.

    Returns (problems, digests, quality): the failed checks as strings,
    sha256 per data file, and the result-quality values it yields.
    """
    out_dir = Path(out_dir)
    problems, quality = [], {}
    if exit_code != inv.expect_exit:
        problems.append(f"exit {exit_code}, expected {inv.expect_exit}: "
                        f"{stderr_text.strip()[-200:]}")
        return problems, {}, quality
    try:
        manifest, digests = _manifest_digests(out_dir, problems)
    except (OSError, ValueError, KeyError) as ex:
        problems.append(f"unreadable manifest or output: {ex}")
        return problems, {}, quality
    if inv.expect_exit != 0:
        if manifest.get("status") != "error" or not str(
                manifest.get("error", "")).startswith("NotHyperbolicLike"):
            problems.append("expected a NotHyperbolicLike failure, manifest "
                            f"says {manifest.get('error')!r}")
        return problems, digests, quality
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
        return problems, digests, quality
    try:
        _check_kind(inv, out_dir, problems, quality)
    except (OSError, ValueError, KeyError) as ex:
        problems.append(f"unreadable output: {ex}")
    return problems, digests, quality


def _check_kind(inv, out_dir, problems, quality):
    kind, family = inv.kind, inv.family
    if kind == "ftle" and family == "logistic" and "--n" not in inv.argv:
        # The default run (n = 1e6, 20 samples) resolves log 2 to 0.01.
        vals = [float(r["ftle"]) for r in _read_csv(out_dir / "ftle.csv")]
        close = sum(1 for v in vals if abs(v - LOG2) <= 0.01)
        if close < len(vals) - 1:
            problems.append(f"only {close} of {len(vals)} logistic FTLE "
                            "samples within 0.01 of log 2")
        errs = [abs(v - LOG2) for v in vals if math.isfinite(v)]
        quality["lyap_err"] = statistics.median(errs) if errs else math.inf
    elif kind == "acim" and family == "logistic":
        l1 = _arcsine_l1(_read_csv(out_dir / "measure.csv"))
        if not l1 <= 0.05:
            problems.append(f"logistic acim L1 {l1:.4g} > 0.05")
        quality["acim_l1"] = l1
    elif kind == "acim" and family == "viana":
        grid = json.loads((out_dir / "measure_meta.json").read_text())["grid"]
        quality["base_marginal_l1"] = _base_marginal_l1(
            _read_csv(out_dir / "measure.csv"), grid)
    elif kind == "components" and family in COMPONENT_COUNT:
        count = json.loads((out_dir / "components.json").read_text())["count"]
        if count != COMPONENT_COUNT[family]:
            problems.append(f"{family}: {count} components, expected "
                            f"{COMPONENT_COUNT[family]}")
    elif kind == "census":
        total = sum(float(r["total_measure"])
                    for r in _read_csv(out_dir / "census.csv"))
        if abs(total - DOMAIN_LENGTH[family]) > 1e-9:
            problems.append(f"census components cover {total!r}, domain "
                            f"length is {DOMAIN_LENGTH[family]!r}")
    elif kind == "markov":
        cert = json.loads((out_dir / "certificate.json").read_text())
        if not cert["image_exactness"] <= 1e-9:
            problems.append(f"markov image exactness "
                            f"{cert['image_exactness']:.3g} > 1e-9")
        if not cert["coverage"] >= 0.99:
            problems.append(f"markov coverage {cert['coverage']:.4f} < 0.99")
        quality["markov_cert_failures"] = len(cert["failures"])
