"""Experiment execution, persistence and manifests.

Every run writes its data files plus a manifest recording the exact
config, the seed and generator, per-file content digests and wall time.
Reruns with an identical config reproduce the data files bit for bit.
"""

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import FiberdynError, IOFailure, ValidationError
from ..expansion import ftle_fiber, ftle_full, measure_AY_decay
from ..hyptimes import (CurveGraph, PlissQuery, curve_growth_constants,
                        pliss_times, probe_neighborhood, slope_envelope)
from ..branches import component_census, track_branch
from ..maps import IntervalMap, SkewProduct, make_system
from ..measures import empirical_measure, ergodic_components, resolve_grid
from ..markov import (assemble_markov, branches_to_csv, build_partition,
                      summability_stat)
from ..rng import make_generator, rng_metadata
from .config import ExperimentConfig, serialize_config


def _require(cfg, system, cls):
    """Reject a family whose system type the experiment cannot run on."""
    if not isinstance(system, cls):
        raise ValidationError(
            "system.family", f"{cfg.kind} experiments need a {cls.__name__}; "
            f"{cfg.family!r} is a {type(system).__name__}")


def _grid(cfg, system):
    try:
        return resolve_grid(system, cfg.param("bins"))
    except ValueError as ex:
        raise ValidationError("experiment.bins", str(ex)) from ex


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _run_ftle(cfg, system, out):
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
    seq = system.sequence(cfg.params.get("theta", 0.0))
    br = track_branch(seq, cfg.param("x"), cfg.param("n"))
    payload = {
        "x": br.x, "n": br.n, "t_lo": br.t_lo, "t_hi": br.t_hi,
        "img_lo": br.img_lo, "img_hi": br.img_hi,
        "orientation": br.orientation,
        "lo_cut": None if br.lo_cut is None else
            {"level": br.lo_cut.level, "critical": br.lo_cut.critical},
        "hi_cut": None if br.hi_cut is None else
            {"level": br.hi_cut.level, "critical": br.hi_cut.critical},
    }
    (out / "branch.json").write_text(json.dumps(payload, sort_keys=True))
    _write_csv(out / "r_history.csv", ["i", "r"],
               [[i + 1, repr(r)] for i, r in enumerate(br.r_history)])
    return ["branch.json", "r_history.csv"]


def _run_census(cfg, system, out):
    seq = system.sequence(cfg.params.get("theta", 0.0))
    record = component_census(seq, cfg.param("n"), cfg.param("delta"),
                              cap=cfg.param("cap"))
    record.to_csv(out / "census.csv")
    return ["census.csv"]


def _run_ay_decay(cfg, system, out):
    n_values = [int(v) for v in cfg.param("n_values").split()]
    lo, hi = cfg.param("delta_min"), cfg.param("delta_max")
    count = cfg.param("delta_count")
    deltas = list(np.geomspace(lo, hi, count)) if count > 1 else [lo]
    table = measure_AY_decay(system, n_values, deltas, cfg.param("lambda"),
                             cfg.param("samples"), cfg.seed)
    table.to_csv(out / "decay.csv")
    return ["decay.csv"]


def _run_pliss(cfg, system, out):
    seq = system.sequence(cfg.params.get("theta", 0.0))
    br = track_branch(seq, cfg.param("x"), cfg.param("n"))
    q = PlissQuery(br.r_history, cfg.param("c1"), cfg.param("c2"),
                   seq.domain.length)
    res = pliss_times(q)
    _write_csv(out / "pliss.csv", ["index"], [[i] for i in res.indices])
    (out / "pliss.json").write_text(json.dumps({
        "density": res.density, "zeta": res.zeta,
        "guaranteed": res.guaranteed, "count": len(res.indices),
    }, sort_keys=True))
    return ["pliss.csv", "pliss.json"]


def _run_curve(cfg, system, out):
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
    (out / "curve.json").write_text(json.dumps({
        "C1": C1, "C2": C2, "alpha": alpha,
        "max_slope": float(env.max()),
        "bound_satisfied": bool(env.max() <= 1.1 * C1),
    }, sort_keys=True))
    return ["curve_slopes.csv", "curve.json"]


def _run_probe(cfg, system, out):
    _require(cfg, system, SkewProduct)
    rep = probe_neighborhood(system, (cfg.param("theta"), cfg.param("x")),
                             cfg.param("k"), cfg.param("delta_tilde"),
                             cfg.param("grid"))
    (out / "probe.json").write_text(rep.to_json())
    return ["probe.json"]


def _run_acim(cfg, system, out):
    mu = empirical_measure(system, cfg.param("samples"), cfg.param("n"),
                           _grid(cfg, system), cfg.seed)
    mu.to_csv(out / "measure.csv")
    (out / "measure_meta.json").write_text(mu.metadata_json())
    return ["measure.csv", "measure_meta.json"]


def _run_components(cfg, system, out):
    rep = ergodic_components(system, cfg.param("probes"), cfg.param("n"),
                             _grid(cfg, system), cfg.seed,
                             cfg.param("threshold"))
    (out / "components.json").write_text(rep.to_json())
    _write_csv(out / "assignment.csv", ["probe", "cluster"],
               list(enumerate(rep.assignment)))
    return ["components.json", "assignment.csv"]


def _run_markov(cfg, system, out):
    _require(cfg, system, IntervalMap)
    part = build_partition(system, cfg.param("depth"))
    cert = assemble_markov(system, part, seeds=cfg.param("seeds"),
                           k_max=cfg.param("k_max"), seed=cfg.seed)
    branches_to_csv(cert.branches, out / "branches.csv")
    (out / "certificate.json").write_text(cert.to_json())
    try:
        st = summability_stat(cert.branches, system, cfg.param("orbit_len"),
                              cfg.param("probes"), cfg.seed)
        summary = {"mean_time": st.mean_time, "dispersion": st.dispersion,
                   "escaped": st.escaped}
    except FiberdynError as ex:
        summary = {"error": str(ex)}
    (out / "summability.json").write_text(json.dumps(summary, sort_keys=True))
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
