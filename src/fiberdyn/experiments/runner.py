"""Experiment execution, persistence and manifests.

Every run writes its data files plus a manifest recording the exact
config, the seed and generator, per-file content digests and wall time.
Reruns with an identical config reproduce the data files bit for bit.

This is the one module that turns results into bytes: the numerical
modules return values, and each `_run_*` function below lays out its
files through `_write_csv` and `_write_json`.  Floats are written with
`repr`, so a file round-trips them exactly.

Each `_run_*` function imports the analysis functions it calls in its own
body, so a process loads only the numerical modules of the kinds it runs;
importing this module loads `maps` and `rng` alone.
"""

import csv
import hashlib
import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import FiberdynError, IOFailure, ValidationError
from ..maps import IntervalMap, SkewProduct, make_system
from ..rng import make_generator, rng_metadata
from .config import ExperimentConfig, serialize_config


def _require(cfg, system, cls):
    """Reject a family whose system type the experiment cannot run on."""
    if not isinstance(system, cls):
        raise ValidationError(
            "system.family", f"{cfg.kind} experiments need {_a(cls)}; "
            f"{cfg.family!r} is {_a(type(system))}")


def _a(cls):
    """The class name with its indefinite article."""
    return f"{'an' if cls.__name__[0] in 'AEIOU' else 'a'} {cls.__name__}"


def _anchor(cfg, domain):
    """experiment.x, which must be finite and interior to the domain."""
    x = cfg.param("x")
    if not domain.lo < x < domain.hi:
        raise ValidationError("experiment.x", f"{x!r} is not interior to "
                              f"the domain [{domain.lo!r}, {domain.hi!r}]")
    return x


def _grid(cfg, system):
    from ..measures import resolve_grid
    try:
        return resolve_grid(system, cfg.param("bins"))
    except ValueError as ex:
        raise ValidationError("experiment.bins", str(ex)) from ex


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True))


def _run_ftle(cfg, system, out):
    from ..expansion import ftle_fiber, ftle_full
    rng = make_generator(cfg.seed)
    n = cfg.param("n")
    skew = isinstance(system, SkewProduct)
    seq = None if skew else system.sequence(0.0)
    rows = []
    for i in range(cfg.param("samples")):
        # one point per draw: [x0], or [theta, x0] for a skew-product
        z = [float(v) for v in np.ravel(system.sample(rng, 1))]
        try:
            val = ftle_full(system, z, n) if skew else ftle_fiber(seq, z[0], n)
        except FiberdynError:
            val = float("nan")
        rows.append([i, *map(repr, z), repr(val)])
    header = ["sample", "theta", "x0", "ftle"] if skew else \
        ["sample", "x0", "ftle"]
    _write_csv(out / "ftle.csv", header, rows)
    return ["ftle.csv"]


def _run_branch(cfg, system, out):
    from ..branches import track_branch
    seq = system.sequence(cfg.param("theta"))
    br = track_branch(seq, _anchor(cfg, seq.domain), cfg.param("n"))
    # r_history goes to its own file
    _write_json(out / "branch.json", {k: v for k, v in asdict(br).items()
                                      if k != "r_history"})
    _write_csv(out / "r_history.csv", ["i", "r"],
               [[i + 1, repr(r)] for i, r in enumerate(br.r_history)])
    return ["branch.json", "r_history.csv"]


def _run_census(cfg, system, out):
    from ..branches import component_census
    # census has no theta key: a skew-product runs its theta = 0 fibers
    seq = system.sequence(0.0)
    record = component_census(seq, cfg.param("n"), cfg.param("delta"),
                              cap=cfg.param("cap"))
    _write_csv(out / "census.csv",
               ["word", "component_count", "total_measure"],
               [["".join(map(str, w)), record.count(w),
                 repr(record.measure(w))] for w in record.words()])
    return ["census.csv"]


def _run_ay_decay(cfg, system, out):
    from ..expansion import measure_AY_decay
    n_values = [int(v) for v in cfg.param("n_values").split()]
    lo, hi = cfg.param("delta_min"), cfg.param("delta_max")
    count = cfg.param("delta_count")
    deltas = list(np.geomspace(lo, hi, count)) if count > 1 else [lo]
    table = measure_AY_decay(system, n_values, deltas, cfg.param("lambda"),
                             cfg.param("samples"), cfg.seed)
    _write_csv(out / "decay.csv", ["n", "fraction", "bound", "delta",
                                   "lambda", "samples", "seed"],
               [[n, repr(frac), repr(bound), repr(delta), repr(lam), m, seed]
                for n, frac, _, bound, delta, lam, m, seed in table.rows])
    return ["decay.csv"]


def _run_pliss(cfg, system, out):
    from ..branches import track_branch
    from ..hyptimes import PlissQuery, pliss_times
    seq = system.sequence(cfg.param("theta"))
    length = seq.domain.length
    if cfg.param("c2") > length:
        raise ValidationError("experiment.c2", f"{cfg.param('c2')!r} exceeds "
                              f"the domain length {length!r}")
    br = track_branch(seq, _anchor(cfg, seq.domain), cfg.param("n"))
    q = PlissQuery(br.r_history, cfg.param("c1"), cfg.param("c2"), length)
    res = pliss_times(q)
    _write_csv(out / "pliss.csv", ["index"], [[i] for i in res.indices])
    _write_json(out / "pliss.json", {
        "density": res.density, "zeta": res.zeta,
        "guaranteed": res.guaranteed, "count": len(res.indices),
    })
    return ["pliss.csv", "pliss.json"]


def _run_curve(cfg, system, out):
    from ..hyptimes import CurveGraph, curve_growth_constants, slope_envelope
    _require(cfg, system, SkewProduct)
    rng = make_generator(cfg.seed)
    alpha = cfg.param("alpha")
    n = cfg.param("iterations")
    dom = system.fiber_domain
    margin = 0.05 * dom.length
    env = np.zeros(n)
    for _ in range(cfg.param("curves")):
        height = float(rng.uniform(dom.lo + margin, dom.hi - margin))
        slope = float(rng.uniform(-alpha, alpha))
        th = np.linspace(0.0, 1.0, cfg.param("samples"))
        xs = height + slope * (th - 0.5)
        cur = CurveGraph(th, xs, slopes=np.full(th.size, slope))
        env = np.maximum(env, slope_envelope(system, cur, n))
    _, C1, C2 = curve_growth_constants(system, alpha)
    _write_csv(out / "curve_slopes.csv", ["iterate", "max_slope"],
               [[i + 1, repr(float(v))] for i, v in enumerate(env)])
    _write_json(out / "curve.json", {
        "C1": C1, "C2": C2, "alpha": alpha,
        "max_slope": float(env.max()),
        "bound_satisfied": bool(env.max() <= 1.1 * C1),
    })
    return ["curve_slopes.csv", "curve.json"]


def _run_probe(cfg, system, out):
    from ..hyptimes import probe_neighborhood
    _require(cfg, system, SkewProduct)
    x = _anchor(cfg, system.fiber_domain)
    rep = probe_neighborhood(system, (cfg.param("theta"), x),
                             cfg.param("k"), cfg.param("delta_tilde"),
                             cfg.param("grid"))
    _write_json(out / "probe.json", asdict(rep))
    return ["probe.json"]


def _run_acim(cfg, system, out):
    from ..measures import BinGrid1D, empirical_measure
    mu = empirical_measure(system, cfg.param("samples"), cfg.param("n"),
                           _grid(cfg, system), cfg.seed)
    w = [repr(float(v)) for v in mu.weights]
    if isinstance(mu.grid, BinGrid1D):
        e = [repr(float(v)) for v in mu.grid.edges]
        _write_csv(out / "measure.csv", ["bin_lo", "bin_hi", "weight"],
                   zip(e, e[1:], w))
    else:
        _write_csv(out / "measure.csv", ["flat_index", "weight"], enumerate(w))
    _write_json(out / "measure_meta.json",
                {**mu.metadata, "grid": mu.grid.describe()})
    return ["measure.csv", "measure_meta.json"]


def _run_components(cfg, system, out):
    from ..measures import ergodic_components
    rep = ergodic_components(system, cfg.param("probes"), cfg.param("n"),
                             _grid(cfg, system), cfg.seed,
                             cfg.param("threshold"))
    _write_json(out / "components.json", asdict(rep))
    _write_csv(out / "assignment.csv", ["probe", "cluster"],
               list(enumerate(rep.assignment)))
    return ["components.json", "assignment.csv"]


def _run_markov(cfg, system, out):
    from ..markov import assemble_markov, build_partition, summability_stat
    _require(cfg, system, IntervalMap)
    part = build_partition(system, cfg.param("depth"))
    cert = assemble_markov(system, part, seeds=cfg.param("seeds"),
                           k_max=cfg.param("k_max"), seed=cfg.seed)
    _write_csv(out / "branches.csv",
               ["i", "lo", "hi", "k", "image_cell", "distortion_sample"],
               [[i, repr(b.lo), repr(b.hi), b.time, b.image_cell,
                 repr(b.distortion_sample)]
                for i, b in enumerate(cert.branches)])
    _write_json(out / "certificate.json", {
        "branch_count": len(cert.branches), "coverage": cert.coverage,
        "image_exactness": cert.image_exactness,
        "min_image_length": cert.min_image_length,
        "constancy_ok": cert.constancy_ok, "K_hat": cert.K_hat, "N": cert.N,
        "failures": cert.failures,
    })
    try:
        st = summability_stat(cert.branches, system, cfg.param("orbit_len"),
                              cfg.param("probes"), cfg.seed)
        summary = {"mean_time": st.mean_time, "dispersion": st.dispersion,
                   "escaped": st.escaped}
    except FiberdynError as ex:
        summary = {"error": str(ex)}
    _write_json(out / "summability.json", summary)
    return ["branches.csv", "certificate.json", "summability.json"]


_RUNNERS = {
    "ftle": _run_ftle,
    "branch": _run_branch,
    "census": _run_census,
    "ay_decay": _run_ay_decay,
    "pliss": _run_pliss,
    "curve": _run_curve,
    "probe": _run_probe,
    "acim": _run_acim,
    "components": _run_components,
    "markov": _run_markov,
}


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def run_experiment(cfg: ExperimentConfig):
    """Execute the configured experiment and write outputs plus manifest.

    Returns the manifest dict; experiment failures are recorded in the
    manifest (status "error") and re-raised for the caller to translate
    into an exit status.
    """
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as ex:
        raise IOFailure(f"cannot create output directory: {ex}") from ex
    manifest = {
        "tool": "fiberdyn",
        "tool_version": __version__,
        "experiment": cfg.kind,
        "config": serialize_config(cfg),
        "rng": rng_metadata(cfg.seed),
        "outputs": [],
        "status": "ok",
    }
    t0 = time.perf_counter()
    error = None
    try:
        try:
            system = make_system(cfg.family, **cfg.system_params)
        except ValueError as ex:    # parameters outside the family's range
            raise ValidationError("system", str(ex)) from ex
        names = _RUNNERS[cfg.kind](cfg, system, out)
        for name in names:
            p = out / name
            manifest["outputs"].append({
                "name": name,
                "sha256": _sha256(p),
                "bytes": p.stat().st_size,
            })
    except Exception as ex:   # record, then re-raise for exit-status logic
        manifest["status"] = "error"
        manifest["error"] = f"{type(ex).__name__}: {ex}"
        error = ex
    manifest["wall_time_s"] = time.perf_counter() - t0
    try:
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True))
    except OSError as ex:
        raise IOFailure(f"cannot write manifest: {ex}") from ex
    if error is not None:
        raise error
    return manifest
