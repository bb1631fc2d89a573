"""Experiment execution, persistence and manifests.

Every run writes its data files plus a manifest recording the exact
config, the seed and generator, per-file content digests and wall time.
Reruns with an identical config reproduce the data files bit for bit.

This is the one module that turns results into bytes.  The numerical
modules return values, and so does each `_run_*` function below: its
files as {name: CSV rows, header first, or a JSON payload}.
`run_experiment` alone encodes, writes and digests them, once the kind
has returned.  Floats are written with `repr`, so a file round-trips
them exactly.

Each `_run_*` function imports the analysis functions it calls in its own
body, so a process loads only the numerical modules of the kinds it runs;
importing this module loads `maps` and `rng` alone.
"""

import csv
import hashlib
import io
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


def _run_ftle(cfg, system):
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
    return {"ftle.csv": [header, *rows]}


def _run_branch(cfg, system):
    from ..branches import track_branch
    seq = system.sequence(cfg.param("theta"))
    br = track_branch(seq, _anchor(cfg, seq.domain), cfg.param("n"))
    # r_history goes to its own file
    return {"branch.json": {k: v for k, v in asdict(br).items()
                            if k != "r_history"},
            "r_history.csv": [["i", "r"], *([i + 1, repr(r)] for i, r in
                                            enumerate(br.r_history))]}


def _run_census(cfg, system):
    from ..branches import component_census
    # census has no theta key: a skew-product runs its theta = 0 fibers
    seq = system.sequence(0.0)
    record = component_census(seq, cfg.param("n"), cfg.param("delta"),
                              cap=cfg.param("cap"))
    return {"census.csv": [
        ["word", "component_count", "total_measure"],
        *(["".join(map(str, w)), record.count(w), repr(record.measure(w))]
          for w in record.words())]}


def _run_ay_decay(cfg, system):
    from ..expansion import measure_AY_decay
    n_values = [int(v) for v in cfg.param("n_values").split()]
    lo, hi = cfg.param("delta_min"), cfg.param("delta_max")
    count = cfg.param("delta_count")
    deltas = list(np.geomspace(lo, hi, count)) if count > 1 else [lo]
    table = measure_AY_decay(system, n_values, deltas, cfg.param("lambda"),
                             cfg.param("samples"), cfg.seed)
    return {"decay.csv": [
        ["n", "fraction", "bound", "delta", "lambda", "samples", "seed"],
        *([n, repr(frac), repr(bound), repr(delta), repr(lam), m, seed]
          for n, frac, _, bound, delta, lam, m, seed in table.rows)]}


def _run_pliss(cfg, system):
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
    return {"pliss.csv": [["index"], *([i] for i in res.indices)],
            "pliss.json": {
                "density": res.density, "zeta": res.zeta,
                "guaranteed": res.guaranteed, "count": len(res.indices),
            }}


def _run_curve(cfg, system):
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
    return {"curve_slopes.csv": [["iterate", "max_slope"],
                                 *([i + 1, repr(float(v))]
                                   for i, v in enumerate(env))],
            "curve.json": {
                "C1": C1, "C2": C2, "alpha": alpha,
                "max_slope": float(env.max()),
                "bound_satisfied": bool(env.max() <= 1.1 * C1),
            }}


def _run_probe(cfg, system):
    from ..hyptimes import probe_neighborhood
    _require(cfg, system, SkewProduct)
    x = _anchor(cfg, system.fiber_domain)
    rep = probe_neighborhood(system, (cfg.param("theta"), x),
                             cfg.param("k"), cfg.param("delta_tilde"),
                             cfg.param("grid"))
    return {"probe.json": asdict(rep)}


def _run_acim(cfg, system):
    from ..measures import BinGrid1D, empirical_measure
    mu = empirical_measure(system, cfg.param("samples"), cfg.param("n"),
                           _grid(cfg, system), cfg.seed)
    w = [repr(float(v)) for v in mu.weights]
    if isinstance(mu.grid, BinGrid1D):
        e = [repr(float(v)) for v in mu.grid.edges]
        rows = [["bin_lo", "bin_hi", "weight"], *zip(e, e[1:], w)]
    else:
        rows = [["flat_index", "weight"], *enumerate(w)]
    return {"measure.csv": rows,
            "measure_meta.json": {**mu.metadata,
                                  "grid": mu.grid.describe()}}


def _run_components(cfg, system):
    from ..measures import ergodic_components
    rep = ergodic_components(system, cfg.param("probes"), cfg.param("n"),
                             _grid(cfg, system), cfg.seed,
                             cfg.param("threshold"))
    return {"components.json": asdict(rep),
            "assignment.csv": [["probe", "cluster"],
                               *enumerate(rep.assignment)]}


def _run_markov(cfg, system):
    from ..markov import assemble_markov, build_partition, summability_stat
    _require(cfg, system, IntervalMap)
    part = build_partition(system, cfg.param("depth"))
    cert = assemble_markov(system, part, seeds=cfg.param("seeds"),
                           k_max=cfg.param("k_max"), seed=cfg.seed)
    try:
        st = summability_stat(cert.branches, system, cfg.param("orbit_len"),
                              cfg.param("probes"), cfg.seed)
        summary = {"mean_time": st.mean_time, "dispersion": st.dispersion,
                   "escaped": st.escaped}
    except FiberdynError as ex:
        summary = {"error": str(ex)}
    return {
        "branches.csv": [
            ["i", "lo", "hi", "k", "image_cell", "distortion_sample"],
            *([i, repr(b.lo), repr(b.hi), b.time, b.image_cell,
               repr(b.distortion_sample)]
              for i, b in enumerate(cert.branches))],
        "certificate.json": {
            "branch_count": len(cert.branches), "coverage": cert.coverage,
            "image_exactness": cert.image_exactness,
            "min_image_length": cert.min_image_length,
            "constancy_ok": cert.constancy_ok, "K_hat": cert.K_hat,
            "N": cert.N, "failures": cert.failures,
        },
        "summability.json": summary,
    }


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
        for name, content in _RUNNERS[cfg.kind](cfg, system).items():
            if name.endswith(".json"):
                text = json.dumps(content, sort_keys=True)
            else:
                buf = io.StringIO()
                csv.writer(buf).writerows(content)
                text = buf.getvalue()
            data = text.encode()
            (out / name).write_bytes(data)
            manifest["outputs"].append({
                "name": name,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
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
