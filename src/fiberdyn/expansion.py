"""Finite-time expansion statistics.

Fiberwise and full-differential Lyapunov averages, vectorized
branch-size statistics, and the two cloud experiments that read them:
the decay of the overlap of slow-branch-growth points with expanding
points, and the mass carried at hyperbolic-like times.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat

import numpy as np

from .branches import image_step
from .errors import (DegenerateDifferential, EmptySample, HitCritical,
                     InvalidConstants)
from .maps import IntervalMap, MapSequence, SkewProduct, log_abs
from .rng import make_generator

# Orbit steps per chunk of the ftle kernels: long enough to amortise the
# array calls, short enough to keep memory flat.
_ORBIT_CHUNK = 4096


def _orbit_chunk(f, args, x, k):
    """x and its next k - 1 iterates, as a float array, plus the k-th iterate.

    Step i sends x_i to f(*(a[i] for a in args), x_i), on whatever scalars
    f returns; the k-th iterate is not converted.
    """
    orbit = [x]
    # map iterates over the list that extend is growing, so it reads each
    # point just appended: x, f(x), f(f(x)), ...
    orbit.extend(islice(map(f, *args, orbit), k))
    return np.fromiter(orbit, float, k), orbit[k]


def _log_sum(s, d):
    """(s plus the log_abs terms of d, added left to right as a per-step
    loop adds them, None), or (s, i) if d_i is the first critical term."""
    logs = log_abs(d)
    hits = np.flatnonzero(logs == -np.inf)
    if hits.size:
        return s, int(hits[0])
    logs[0] += s
    # add.accumulate sums left to right, unlike np.sum's pairwise tree
    return float(np.add.accumulate(logs, out=logs)[-1]), None


def ftle_fiber(seq: MapSequence, x, n):
    """(1/n) sum of log |Df_j| along the orbit of x under the sequence.

    Raises HitCritical(step) at the first step j whose |Df_j(x_j)| is
    critical (maps.log_abs).  The orbit is built in chunks with the scalar
    step `seq.chunk` supplies, whose derivative is then evaluated on the
    whole chunk as an array and summed by `_log_sum`.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    x = float(x)
    s = 0.0
    for start in range(0, n, _ORBIT_CHUNK):
        k = min(_ORBIT_CHUNK, n - start)
        f, args, df = seq.chunk(start, k)
        xs, x = _orbit_chunk(f, args, x, k)
        s, hit = _log_sum(s, np.broadcast_to(df(xs), xs.shape))
        if hit is not None:
            raise HitCritical(start + hit)
    return s / n


def smallest_singular_value(gp, ft, fx):
    """Smallest singular value of [[gp, 0], [ft, fx]] in closed form.

    A float gives a float; arrays give an array from the same operations,
    elementwise, so each entry equals the float result bit for bit.
    """
    F = gp * gp + ft * ft + fx * fx
    det = abs(gp * fx)
    if isinstance(F, float):
        disc = math.sqrt(max(F * F - 4.0 * det * det, 0.0))
        smax = math.sqrt(0.5 * (F + disc))
        return det / smax if smax > 0 else 0.0
    disc = np.sqrt(np.maximum(F * F - 4.0 * det * det, 0.0))
    smax = np.sqrt(0.5 * (F + disc))
    return np.divide(det, smax, out=np.zeros_like(det), where=smax > 0)


def ftle_full(skew: SkewProduct, z, n):
    """(1/n) sum of log of the differential co-norm along the orbit of z.

    The co-norm is the smallest singular value of the triangular
    differential [[d_theta g, 0], [d_theta f, d_x f]], the reciprocal of
    the inverse-matrix norm when the differential is invertible.  Raises
    DegenerateDifferential at the first step whose co-norm is critical
    (maps.log_abs), which with d_theta g = d != 0 is where d_x f = 0.

    The orbit is stepped in chunks: theta_j by `skew.base_orbit`, then
    c(theta_j) on the chunk's theta array and x_j by `skew.fiber_step` on
    floats.  The differential and its co-norm are then evaluated on the
    whole chunk as arrays and summed by `_log_sum`, so the result is that
    of a per-step loop bit for bit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    theta, x = float(z[0]), float(z[1])
    s = 0.0
    for start in range(0, n, _ORBIT_CHUNK):
        k = min(_ORBIT_CHUNK, n - start)
        T = skew.base_orbit(theta, k)
        T, theta = T[:k], T[k]
        X, x = _orbit_chunk(skew.fiber_step,
                            (skew.fiber_coefficient(T).tolist(),), x, k)
        s, hit = _log_sum(s, smallest_singular_value(
            skew.base_derivative(T), skew.fiber_dtheta(T, X),
            skew.fiber_dx(T, X)))
        if hit is not None:
            raise DegenerateDifferential(
                f"d_x f = 0 at (theta={float(T[hit])}, x={float(X[hit])})")
    return s / n


# ---------------------------------------------------------------------------
# vectorized branch-size statistics
# ---------------------------------------------------------------------------

def _branch_loop(steps, critical_points, domain, x0, n):
    """The branch-size loop behind branch_stats and fiber_branch_stats.

    `steps` yields one (f, Df) pair of array callables per step; the
    critical set is the same at every step.  An anchor dies once it comes
    within HIT_TOL of that set, as in track_branch (branches.image_step).
    Yields (r_j, logd_j, alive) for j < n: new arrays of r and log |Df| at
    step j, 0 and -inf on the lanes dead by then, and the alive mask, one
    array updated in place.
    """
    x0 = np.asarray(x0, dtype=float)
    a = np.full(x0.shape, domain.lo)
    b = np.full(x0.shape, domain.hi)
    y = x0.copy()
    alive = np.ones(x0.shape, dtype=bool)
    for f, df in islice(steps, n):
        logs = log_abs(df(y))
        hit, _, _, fa, fb, y = image_step(f, critical_points, a, b, y)
        alive &= ~hit
        logd = np.where(alive, logs, -np.inf)
        a, b = np.minimum(fa, fb), np.maximum(fa, fb)
        r = np.zeros(x0.shape)
        np.minimum(y - a, b - y, out=r, where=alive)
        yield r, logd, alive


def _stacked(rows, x0, n):
    """(r, logd, alive) of branch_stats from the rows of _branch_loop."""
    r = np.zeros((n,) + np.shape(x0))
    logd = np.full(r.shape, -np.inf)
    alive = np.ones(np.shape(x0), dtype=bool)
    for j, (r_j, logd_j, alive) in enumerate(rows):
        # [j, ...] is a view even for one anchor
        r[j, ...], logd[j, ...] = r_j, logd_j
    return r, logd, alive


def _cloud_branch_rows(system, cloud, n):
    """The _branch_loop rows of a cloud drawn by `system.sample`: an interval
    map applies itself, and a skew-product follows each point's fiber
    sequence, with theta_j and c(theta_j) from `skew.theta_blocks`."""
    if not isinstance(system, SkewProduct):
        return _branch_loop(repeat((system.evaluator, system.derivative)),
                            system.critical_points, system.domain, cloud, n)
    skew, (thetas, x0) = system, cloud
    steps = ((partial(skew.fiber_step, c), partial(skew.fiber_dx, th))
             for T, C in skew.theta_blocks(thetas, n) for th, c in zip(T, C))
    return _branch_loop(steps, skew.fiber_critical_points, skew.fiber_domain,
                        x0, n)


def branch_stats(m: IntervalMap, x0, n):
    """Image-side branch sizes r_i and log |Df| for a batch of anchors.

    Returns (r, logd, alive): arrays of shape (n, len(x0)) plus the final
    alive mask; anchors whose orbit hits a critical point have r frozen at 0
    and logd at -inf from that step on.  Matches track_branch image-side
    arithmetic exactly.
    """
    return _stacked(_cloud_branch_rows(m, x0, n), x0, n)


def fiber_branch_stats(skew: SkewProduct, thetas, x0, n):
    """branch_stats along fiber sequences for a batch of (theta, x) points.

    Every fiber map has the critical set `skew.fiber_critical_points`.
    """
    return _stacked(_cloud_branch_rows(skew, (thetas, x0), n), x0, n)


# ---------------------------------------------------------------------------
# the decay experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayTable:
    rows: tuple      # (n, fraction, measure, bound, delta, lam, samples, seed)
    domain_length: float

    def deltas(self):
        return sorted({row[4] for row in self.rows})

    def passing_deltas(self):
        """Deltas whose empirical fraction sits below the bound at every n."""
        return [d for d in self.deltas()
                if all(row[1] <= row[3] for row in self.rows if row[4] == d)]


def measure_AY_decay(system, n_list, delta, lam, samples, seed):
    """Monte-Carlo size of the slow-branch/expanding overlap set.

    For each n in n_list and each delta in the scanned grid, estimates the
    fraction of uniformly drawn points whose first-n mean branch size is
    below delta^2 (with the depth-n branch still alive) while the fiber
    expansion average exceeds lam, next to the theoretical envelope
    |I0| exp(-n lam / 2).  Deterministic for a fixed seed.
    """
    if samples < 10**3:
        raise ValueError("need at least 1e3 samples")
    n_list = sorted(int(n) for n in n_list)
    if min(n_list) < 1:
        raise ValueError("need n >= 1")
    deltas = [float(delta)] if np.isscalar(delta) else [float(d) for d in delta]
    if any(d <= 0 for d in deltas):
        raise ValueError("delta must be positive")
    if len(set(n_list)) < len(n_list) or len(set(deltas)) < len(deltas):
        raise ValueError("repeated depths or deltas would repeat table rows")
    cloud = system.sample(make_generator(seed), samples)
    # running sums over the depths, added left to right; the fractions of
    # each delta are taken at the listed n
    sum_r, sum_l = np.zeros(samples), np.zeros(samples)
    fracs = {}
    for n, (r, logd, _) in enumerate(
            _cloud_branch_rows(system, cloud, n_list[-1]), 1):
        sum_r += r
        sum_l += logd
        if n in n_list:
            in_y = sum_l / n > lam
            mean_r = sum_r / n
            fracs[n] = [float(((mean_r < d * d) & (r > 0) & in_y).mean())
                        for d in deltas]
    rows = []
    length = system.sequence(0.0).domain.length
    for n in n_list:
        bound = length * math.exp(-n * lam / 2.0)
        rows.extend((n, frac, frac * length, bound, d, lam, samples,
                     int(seed)) for d, frac in zip(deltas, fracs[n]))
    return DecayTable(tuple(rows), length)


# ---------------------------------------------------------------------------
# mass carried at hyperbolic-like times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuLikeMass:
    mass: float               # average density of hyperbolic-like indices
    anchor_fraction: float    # anchors with sum r_i >= 2 delta n
    zeta: float               # Pliss density floor for such anchors
    bound_holds: bool


def nu_like_mass(system, samples, n, delta_tilde, seed):
    """Fraction of orbit indices that are hyperbolic-like, versus the floor.

    Anchors whose branch sizes satisfy sum r_i >= 2*delta*n carry at least
    a zeta fraction of hyperbolic-like indices, so the deposited mass must
    be at least zeta times the fraction of such anchors.  The Pliss
    constants c1 = delta, c2 = 2*delta, A = |I0| must have c1 < c2 <= A.
    """
    if samples < 1 or n < 1:
        raise ValueError("need samples >= 1 and n >= 1")
    A = system.sequence(0.0).domain.length
    if not delta_tilde < 2.0 * delta_tilde <= A:
        raise InvalidConstants(f"need c1 < c2 <= A, got {delta_tilde}, "
                               f"{2.0 * delta_tilde}, {A}")
    cloud = system.sample(make_generator(seed), samples)
    # a running count and running sums over the steps, added left to right
    count, sum_r = 0, np.zeros(samples)
    for r, _, _ in _cloud_branch_rows(system, cloud, n):
        count += np.count_nonzero(r >= delta_tilde)
        sum_r += r
    mass = count / (n * samples)
    anchors = float((sum_r >= 2.0 * delta_tilde * n).mean())
    zeta = delta_tilde / (A - delta_tilde)
    return NuLikeMass(mass, anchors, zeta, mass >= zeta * anchors - 1e-12)


# ---------------------------------------------------------------------------
# empirical regularity constant for the log-derivative condition
# ---------------------------------------------------------------------------

def estimate_f2(skew: SkewProduct, samples, seed, pairs_per_sample=4):
    """Empirical sup of |dlog|d_x f|| * dist_vert / dist over close pairs.

    Pairs (z, w) are admissible when dist(z, w) < dist_vert(z, crit)/2 and
    w stays inside the phase space; the returned value estimates the
    regularity constant of the vertical log-derivative.  The pairs form one
    (sample, pair) grid under one admissibility mask, which drops the pairs
    with a critical end (maps.log_abs).  hypot is math's, as numpy's differs
    by an ulp on a few tenths of a percent of inputs.
    """
    if samples < 10**3:
        raise ValueError("need at least 1e3 samples")
    rng = make_generator(seed)
    dom = skew.fiber_domain
    th = rng.uniform(0.0, 1.0, (samples, 1))
    xs = rng.uniform(dom.lo, dom.hi, (samples, 1))
    angles = rng.uniform(0.0, 2.0 * math.pi, (samples, pairs_per_sample))
    radii = rng.uniform(0.0, 1.0, (samples, pairs_per_sample))
    gaps = np.abs(xs - np.array(skew.fiber_critical_points))
    dv = gaps.min(axis=1, keepdims=True) if gaps.size else np.ones_like(xs)
    rad = 0.999 * 0.5 * dv * radii
    dt, dx = rad * np.cos(angles), rad * np.sin(angles)
    xw = xs + dx
    hypot = np.frompyfunc(math.hypot, 2, 1)
    dist = hypot(np.minimum(np.abs(dt), 1.0 - np.abs(dt)), dx).astype(float)
    lz, lw = (log_abs(np.broadcast_to(skew.fiber_dx(t, x), x.shape))
              for t, x in ((th, xs), ((th + dt) % 1.0, xw)))
    ok = ((rad > 0.0) & (dom.lo <= xw) & (xw <= dom.hi) & (lz > -np.inf)
          & (lw > -np.inf) & (dist > 0.0) & (dist < 0.5 * dv))
    if not ok.any():
        raise EmptySample("no admissible pairs were drawn")
    # the admissible pairs only: -inf - -inf would warn
    lz, dv = (np.broadcast_to(v, ok.shape)[ok] for v in (lz, dv))
    return float(np.max(np.abs(lz - lw[ok]) * dv / dist[ok]))
