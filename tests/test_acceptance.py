"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; each line appears only after every assertion of that criterion
has held.
"""

import csv
import hashlib
import math
import time

import numpy as np
import pytest

from fiberdyn import (CurveGraph, HitCritical, PlissQuery, assemble_markov,
                      build_partition, component_census,
                      cross_ratio_operator, curve_growth_constants,
                      density_compare, empirical_measure, ergodic_components,
                      ftle_fiber, interval_images, measure_AY_decay,
                      moebius_map, pliss_times, propagate_curve,
                      slope_envelope, track_branch)
from fiberdyn.experiments import parse_config, run_experiment
from fiberdyn.experiments.cli import main as cli_main
from fiberdyn.rng import make_generator

E1 = (2.0 - math.sqrt(2.0)) / 4.0


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_01_lyapunov_oracle(logistic_seq):
    t0 = time.perf_counter()
    good = 0
    for seed in range(1, 21):
        x0 = float(make_generator(seed).uniform(0.0, 1.0))
        try:
            val = ftle_fiber(logistic_seq, x0, 10**6)
        except HitCritical:
            continue
        if abs(val - math.log(2.0)) <= 0.01:
            good += 1
    wall = time.perf_counter() - t0
    assert good >= 19, f"only {good}/20 seeds within 0.01 of log 2"
    assert wall < 5.0, f"wall time {wall:.2f}s exceeds 5s"
    _report(1, f"{good}/20 seeds at log 2 +- 0.01 in {wall:.2f}s")


def test_criterion_02_acim_oracle(logistic):
    t0 = time.perf_counter()
    mu = empirical_measure(logistic, 10**4, 10**3, 256, seed=2024)
    density = lambda x: 1.0 / (math.pi * math.sqrt(max(x * (1 - x), 1e-300)))
    l1 = density_compare(mu, density)
    wall = time.perf_counter() - t0
    assert l1 <= 0.05, f"L1 distance {l1:.4f} exceeds 0.05"
    assert wall < 60.0
    _report(2, f"L1 to closed-form density {l1:.4f} in {wall:.1f}s")


def _endpoint_certified(logistic, seq, endpoint, cut, tol=1e-9):
    """The exact equation f^level(t) = critical has a root within tol.

    Verified by a sign change of the composed map across [e-tol, e+tol].
    The image residual at the stored endpoint is additionally required to
    sit at its float64 attainability floor: a first-order bound that
    propagates the endpoint quantization plus one rounding unit per step
    through the orbit derivatives (deep branches hug critical passages,
    where the computed composition is only accurate to that level).
    """
    level, c = cut.level, cut.critical
    lo = float(seq.compose(endpoint - tol, level)) - c
    hi = float(seq.compose(endpoint + tol, level)) - c
    if not (lo == 0.0 or hi == 0.0 or (lo < 0) != (hi < 0)):
        return False
    resid = abs(float(seq.compose(endpoint, level)) - c)
    noise = np.spacing(max(abs(endpoint), 1.0))
    t = endpoint
    for _ in range(level):
        noise = noise * abs(float(logistic.derivative(t))) + np.spacing(1.0)
        t = float(logistic.evaluator(t))
    return resid <= max(tol, 8.0 * noise)


def test_criterion_03_branch_certificates(logistic, logistic_seq):
    rng = make_generator(303)
    anchors = rng.uniform(0.0, 1.0, 10**3)
    certified = 0
    for x in anchors:
        try:
            br = track_branch(logistic_seq, float(x), 20)
            deeper = track_branch(logistic_seq, float(x), 21)
        except HitCritical:
            continue
        # endpoint certificates: a true critical preimage within 1e-9
        for endpoint, cut in ((br.t_lo, br.lo_cut), (br.t_hi, br.hi_cut)):
            if cut is None:
                assert endpoint in (0.0, 1.0)
            else:
                assert _endpoint_certified(logistic, logistic_seq,
                                           endpoint, cut)
        # monotonicity on 100 interior samples
        xs = np.linspace(br.t_lo, br.t_hi, 102)[1:-1]
        sign = np.ones(xs.size)
        for _ in range(20):
            sign *= np.sign(logistic.derivative(xs))
            xs = logistic.evaluator(xs)
        assert np.all(sign == sign[0])
        # nesting under deepening is exact, r-history prefix-stable
        assert deeper.t_lo >= br.t_lo
        assert deeper.t_hi <= br.t_hi
        assert deeper.r_history[:20] == br.r_history
        certified += 1
    assert certified >= 990
    _report(3, f"certified {certified}/1000 depth-20 branches")


def test_criterion_04_worked_values(logistic_seq):
    br = track_branch(logistic_seq, 0.25, 2)
    assert br.r_history[0] == pytest.approx(0.25, abs=1e-9)
    assert br.r_history[1] == pytest.approx(0.25, abs=1e-9)
    assert br.t_lo == pytest.approx(E1, abs=1e-9)
    assert br.t_hi == pytest.approx(0.5, abs=1e-9)
    _report(4, "hand-derived depth-2 branch values reproduced to 1e-9")


def test_criterion_05_pliss_equivalence():
    rng = make_generator(505)
    guaranteed_checked = 0
    for trial in range(10**3):
        n = int(rng.integers(1, 201))
        vals = rng.uniform(0.0, 1.0, n)
        c1 = float(rng.uniform(0.05, 0.7))
        c2 = float(rng.uniform(c1 + 1e-6, 1.0))
        res = pliss_times(PlissQuery(tuple(vals), c1, c2, 1.0))
        # brute force: check the defining condition for every index pair
        excess = np.concatenate([[0.0], np.cumsum(vals - c1)])
        brute = tuple(ni for ni in range(1, n + 1)
                      if all(excess[ni] >= excess[k] for k in range(ni)))
        assert res.indices == brute
        if vals.sum() >= c2 * n:
            guaranteed_checked += 1
            assert res.guaranteed
            assert res.density >= res.zeta - 1e-12
    assert guaranteed_checked >= 50
    _report(5, f"scan matches brute force on 1000 sequences; density floor "
               f"held on {guaranteed_checked} qualifying instances")


def test_criterion_06_component_count_claims(logistic_seq):
    t0 = time.perf_counter()
    prefix_checks = 0
    chain_checks = 0
    for delta in (0.05, 0.1):
        records = {n: component_census(logistic_seq, n, delta)
                   for n in range(1, 9)}
        # splitting bound: one critical point means factor 3(p+1) = 6
        for s in range(1, 8):
            for word, comps in records[s].components.items():
                child0 = records[s + 1].count(word + (0,))
                child1 = records[s + 1].count(word + (1,))
                assert child0 + child1 <= 6 * len(comps), \
                    f"delta={delta}, word={word}"
                prefix_checks += 1
        # chain bound: critical-free continuations split into <= i+1 pieces
        for s in range(0, 7):
            for word, comps in records[s + 1].components.items():
                if word[-1] != 0:
                    continue
                for (jlo, jhi) in comps:
                    _, clean = interval_images(logistic_seq, jlo, jhi,
                                               s + 1, 7 - s)
                    for i in range(1, clean + 1):
                        deep = records[s + 1 + i].components.get(
                            word + (0,) * i, ())
                        inside = sum(1 for lo, hi in deep
                                     if jlo - 1e-9 <= lo and hi <= jhi + 1e-9)
                        assert inside <= i + 1, \
                            f"delta={delta}, word={word}, i={i}"
                        chain_checks += 1
    wall = time.perf_counter() - t0
    assert wall < 120.0
    assert prefix_checks > 100 and chain_checks > 100
    _report(6, f"splitting bound on {prefix_checks} prefixes, chain bound "
               f"on {chain_checks} instances in {wall:.1f}s")


def test_criterion_07_overlap_decay(logistic, tmp_path):
    deltas = list(np.geomspace(0.02, 0.2, 7))
    table = measure_AY_decay(logistic, [30, 40, 50, 60], deltas,
                             lam=0.3, samples=10**5, seed=707)
    rc = cli_main(["ay_decay", "--family", "logistic",
                   "--n-values", "30 40 50 60", "--delta-min", "0.02",
                   "--delta-max", "0.2", "--delta-count", "7",
                   "--lambda", "0.3", "--samples", str(10**5),
                   "--seed", "707", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "decay.csv", newline="") as fh:
        emitted = list(csv.reader(fh))[1:]
    assert emitted == [[str(n), repr(frac), repr(bound), repr(delta),
                        repr(lam), str(samples), str(seed)]
                       for n, frac, _, bound, delta, lam, samples, seed
                       in table.rows]
    passing = table.passing_deltas()
    assert passing, "no delta stayed below the exponential envelope"
    _report(7, f"{len(passing)}/7 thresholds below |I0| exp(-n lam/2) at "
               f"n in {{30,40,50,60}}; table emitted")


def test_criterion_08_curve_preservation(viana):
    _, C1, C2 = curve_growth_constants(viana, alpha=0.01)
    rng = make_generator(808)
    worst = 0.0
    for _ in range(10):
        height = float(rng.uniform(-1.0, 1.0))
        slope = float(rng.uniform(-0.01, 0.01))
        th = np.linspace(0.0, 1.0, 1025)
        cur = CurveGraph(th, height + slope * (th - 0.5),
                         slopes=np.full(th.size, slope))
        env = slope_envelope(viana, cur, 100)
        worst = max(worst, float(env.max()))
        assert env.max() <= 1.1 * C1
    # arc-length contraction along backwards branches of sampled pieces
    cur = CurveGraph.from_function(
        lambda t: 0.1 + 0.01 * np.sin(2 * np.pi * t),
        dfn=lambda t: 0.02 * np.pi * np.cos(2 * np.pi * t),
        lo=0.4, hi=0.45, samples=513)
    k = 3
    pieces = propagate_curve(viana, cur, k)[-1]
    assert pieces
    for piece in pieces:
        src_x = np.interp(piece.origin, cur.theta, cur.x)
        src_arc = float(np.sum(np.hypot(np.diff(piece.origin),
                                        np.diff(src_x))))
        assert src_arc <= C2 * 16.0**-k * piece.arc_length() * (1 + 1e-6)
    _report(8, f"100-iterate slopes <= 1.1*C1 (worst {worst:.4f} vs C1 "
               f"{C1:.4f}); arc bound held on {len(pieces)} pieces")


def test_criterion_09_markov_certification(logistic):
    part = build_partition(logistic, 1)
    cert = assemble_markov(logistic, part, seeds=10**4, seed=909,
                           check_constancy=True)
    assert cert.image_exactness <= 1e-9          # images are full cells
    assert cert.min_image_length >= part.min_len - 1e-9
    assert cert.coverage >= 0.99
    assert cert.constancy_ok
    assert not cert.failures
    assert math.isfinite(cert.K_hat)
    B = cross_ratio_operator(moebius_map(2.0), 1, (0.1, 0.9), (0.3, 0.6))
    assert B == pytest.approx(1.0, abs=1e-12)
    _report(9, f"{len(cert.branches)} branches, coverage {cert.coverage:.4f}, "
               f"K-hat {cert.K_hat:.2f}, Moebius cross-ratio preserved")


def test_criterion_10_ergodic_components(logistic, twowell):
    for seed in (1, 2, 3):
        rep = ergodic_components(logistic, 100, 10**4, 64, seed,
                                 link_threshold=0.3)
        assert rep.count == 1, f"logistic seed {seed}: {rep.count} clusters"
    for seed in (1, 2, 3):
        rep = ergodic_components(twowell, 100, 10**4, 64, seed,
                                 link_threshold=0.3)
        assert rep.count == 2, f"twowell seed {seed}: {rep.count} clusters"
    _report(10, "1 cluster for the single-well map, 2 for the two-well map, "
                "3 seeds each")


_DETERMINISM_CONFIGS = {
    "ftle": "[system]\nfamily = logistic\n[experiment]\nkind = ftle\n"
            "n = 2000\nsamples = 3\n",
    "branch": "[system]\nfamily = logistic\n[experiment]\nkind = branch\n"
              "x = 0.3\nn = 12\n",
    "census": "[system]\nfamily = logistic\n[experiment]\nkind = census\n"
              "n = 4\ndelta = 0.1\n",
    "ay_decay": "[system]\nfamily = logistic\n[experiment]\n"
                "kind = ay_decay\nn_values = \"10 20\"\nsamples = 2000\n"
                "delta_count = 3\n",
    "pliss": "[system]\nfamily = logistic\n[experiment]\nkind = pliss\n"
             "x = 0.3\nn = 60\nc1 = 0.05\nc2 = 0.1\n",
    "curve": "[system]\nfamily = viana\n[experiment]\nkind = curve\n"
             "iterations = 20\ncurves = 2\nsamples = 129\n",
    "probe": "[system]\nfamily = viana\n[experiment]\nkind = probe\n"
             "theta = 0.3\nx = 0.2\nk = 0\ngrid = 8\n",
    "acim": "[system]\nfamily = logistic\n[experiment]\nkind = acim\n"
            "samples = 2000\nn = 100\nbins = 64\n",
    "components": "[system]\nfamily = twowell\n[experiment]\n"
                  "kind = components\nprobes = 100\nn = 2000\nbins = 32\n",
    "markov": "[system]\nfamily = logistic\n[experiment]\nkind = markov\n"
              "depth = 1\nseeds = 400\nprobes = 10\norbit_len = 10\n",
}


def test_criterion_11_determinism(tmp_path):
    for kind, text in _DETERMINISM_CONFIGS.items():
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / kind / sub
            cfg = parse_config(text + f"[output]\ndir = \"{out}\"\nseed = 5\n")
            manifest = run_experiment(cfg)
            assert manifest["status"] == "ok"
            digests.append({o["name"]: o["sha256"]
                            for o in manifest["outputs"]})
            # manifest digests describe the actual bytes on disk
            for entry in manifest["outputs"]:
                data = (out / entry["name"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert digests[0] == digests[1], f"{kind} rerun changed outputs"
    _report(11, f"bit-identical reruns for all {len(_DETERMINISM_CONFIGS)} "
                "experiment kinds")
