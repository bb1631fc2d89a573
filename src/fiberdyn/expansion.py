"""Finite-time expansion statistics.

Fiberwise and full-differential Lyapunov averages, visit frequencies to
critical neighbourhoods, vectorized branch-size statistics, and the decay
experiment for the overlap of slow-branch-growth points with expanding
points.
"""

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat

import numpy as np

from .errors import (DegenerateDifferential, EmptySample, HitCritical)
from .maps import IntervalMap, MapSequence, SkewProduct, wrap
from .rng import make_generator

# Orbit steps per chunk of the constant-sequence kernel in ftle_fiber: long
# enough to amortise the array calls, short enough to keep memory flat.
_ORBIT_CHUNK = 4096


def ftle_fiber(seq: MapSequence, x, n):
    """(1/n) sum of log |Df_j| along the orbit of x under the sequence.

    Raises HitCritical(step) at the first step j with |Df_j(x_j)| <= 1e-300.
    For a constant sequence the orbit is built in chunks, one scalar
    `evaluator` call per step, and `derivative` is evaluated on each chunk
    as an array.  The log terms are still added left to right in orbit
    order, as in the per-step loop used for other sequences; the two agree
    up to np.log rounding, which can differ from math.log's by one ulp.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    x = float(x)
    s = 0.0
    if not seq.constant:
        for j in range(n):
            m = seq.map_at(j)
            d = abs(float(m.derivative(x)))
            if d <= 1e-300:
                raise HitCritical(j)
            s += math.log(d)
            x = float(m.evaluator(x))
        return s / n
    m = seq.map_at(0)
    f = m.evaluator
    for start in range(0, n, _ORBIT_CHUNK):
        k = min(_ORBIT_CHUNK, n - start)
        orbit = [x]
        # map iterates over the list that extend is growing, so it reads
        # each point just appended: x, f(x), f(f(x)), ...
        orbit.extend(islice(map(f, orbit), k - 1))
        x = f(orbit[-1])
        xs = np.fromiter(orbit, float, k)
        d = np.abs(np.broadcast_to(m.derivative(xs), xs.shape), dtype=float)
        hits = np.flatnonzero(d <= 1e-300)
        if hits.size:
            raise HitCritical(start + int(hits[0]))
        np.log(d, out=d)
        d[0] += s
        # add.accumulate sums left to right, unlike np.sum's pairwise tree
        s = float(np.add.accumulate(d, out=d)[-1])
    return s / n


def smallest_singular_value(gp, ft, fx):
    """Smallest singular value of [[gp, 0], [ft, fx]] in closed form."""
    F = gp * gp + ft * ft + fx * fx
    det = abs(gp * fx)
    disc = math.sqrt(max(F * F - 4.0 * det * det, 0.0))
    smax = math.sqrt(0.5 * (F + disc))
    return det / smax if smax > 0 else 0.0


def ftle_full(skew: SkewProduct, z, n):
    """(1/n) sum of log of the differential co-norm along the orbit of z.

    The co-norm is the smallest singular value of the triangular
    differential [[d_theta g, 0], [d_theta f, d_x f]], the reciprocal of
    the inverse-matrix norm when the differential is invertible.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    theta, x = float(z[0]) % 1.0, float(z[1])
    s = 0.0
    for _ in range(n):
        gp = float(skew.base_derivative(theta))
        ft = float(skew.fiber_dtheta(theta, x))
        fx = float(skew.fiber_dx(theta, x))
        if abs(fx) <= 1e-300:
            # the x-column (0, d_x f) of the differential vanished
            raise DegenerateDifferential(
                f"d_x f = 0 at (theta={theta}, x={x})")
        s += math.log(smallest_singular_value(gp, ft, fx))
        theta, x = float(skew.base(theta)) % 1.0, float(skew.fiber(theta, x))
    return s / n


def visit_frequency(seq: MapSequence, x, n, eps):
    """Fraction of the first n orbit points within eps of the critical set."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = float(x)
    hits = 0
    for j in range(n):
        m = seq.map_at(j)
        cp = m.critical_points
        if cp and min(abs(x - c) for c in cp) < eps:
            hits += 1
        x = float(m.evaluator(x))
    return hits / n


# ---------------------------------------------------------------------------
# vectorized branch-size statistics
# ---------------------------------------------------------------------------

def _branch_loop(steps, critical_points, domain, x0, n, hit_tol):
    """The branch-size loop behind branch_stats and fiber_branch_stats.

    `steps` yields one (f, Df) pair of array callables per step; the
    critical set is the same at every step.
    """
    x0 = np.asarray(x0, dtype=float)
    a = np.full(x0.shape, domain.lo)
    b = np.full(x0.shape, domain.hi)
    y = x0.copy()
    alive = np.ones(x0.shape, dtype=bool)
    r = np.zeros((n,) + x0.shape)
    logd = np.full((n,) + x0.shape, -np.inf)
    for j, (f, df) in zip(range(n), steps):
        for c in critical_points:
            alive &= np.abs(y - c) > hit_tol
            cut_lo = alive & (a < c) & (c < y)
            a = np.where(cut_lo, c, a)
            cut_hi = alive & (y < c) & (c < b)
            b = np.where(cut_hi, c, b)
        d = np.abs(np.asarray(df(y), dtype=float))
        logd[j] = np.where(alive, np.log(np.maximum(d, 1e-300)), -np.inf)
        fa = np.asarray(f(a), dtype=float)
        fb = np.asarray(f(b), dtype=float)
        y = np.asarray(f(y), dtype=float)
        a, b = np.minimum(fa, fb), np.maximum(fa, fb)
        r[j] = np.where(alive, np.minimum(y - a, b - y), 0.0)
    return r, logd, alive


def branch_stats(m: IntervalMap, x0, n, hit_tol=1e-12):
    """Image-side branch sizes r_i and log |Df| for a batch of anchors.

    Returns (r, logd, alive): arrays of shape (n, len(x0)) plus the final
    alive mask; anchors whose orbit hits a critical point have r frozen at 0
    and logd at -inf from that step on.  Matches track_branch image-side
    arithmetic exactly.
    """
    return _branch_loop(repeat((m.evaluator, m.derivative)),
                        m.critical_points, m.domain, x0, n, hit_tol)


def fiber_branch_stats(skew: SkewProduct, thetas, x0, n, hit_tol=1e-12):
    """branch_stats along fiber sequences for a batch of (theta, x) points.

    Requires the fiber critical set to sit at theta-independent x values
    (true for the quadratic catalogue fibers).
    """
    if skew.fiber_criticals is None:
        raise NotImplementedError("fiber critical set must be supplied")
    probes = np.linspace(0.0, 1.0, 8, endpoint=False)
    cps = skew.fiber_criticals(0.0)
    if any(skew.fiber_criticals(t) != cps for t in probes):
        raise NotImplementedError("fiber critical set varies with theta")

    def steps(th):
        while True:
            yield partial(skew.fiber, th), partial(skew.fiber_dx, th)
            th = wrap(np.asarray(skew.base(th), dtype=float))

    th = np.asarray(thetas, dtype=float) % 1.0
    return _branch_loop(steps(th), cps, skew.fiber_domain, x0, n, hit_tol)


def _cloud_branch_stats(system, cloud, n):
    """branch_stats of a cloud drawn by `system.sample`.

    A skew-product follows each point's fiber sequence; a map or a constant
    sequence applies its one map.  A non-constant sequence is rejected: its
    members are not all the same map, and only a skew-product says how a
    point's sequence depends on the point.
    """
    if isinstance(system, SkewProduct):
        return fiber_branch_stats(system, *cloud, n)
    seq = system.sequence(0.0)
    if not seq.constant:
        raise ValueError("branch statistics of a cloud need an interval map, "
                         "a constant sequence or a skew-product")
    return branch_stats(seq.map_at(0), cloud, n)


# ---------------------------------------------------------------------------
# membership records and the decay experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionRecord:
    point: tuple
    n: int
    ftle: float
    r_mean: float
    r_last: float
    in_Y: bool
    in_A: bool
    in_Z: bool = None
    visit_freq: float = None


def classify_point(system, point, n, lam, delta, eps=None):
    """Expansion membership record for one point.

    `system` is an IntervalMap, a constant MapSequence, or a SkewProduct;
    for skew-products `point` is (theta, x) and the full-differential
    average feeds the Z flag while the fiber average feeds Y.
    """
    if isinstance(system, SkewProduct):
        theta, x = (float(v) for v in point)
        in_z = ftle_full(system, point, n) > lam
        point = (theta, x)
    else:
        x = float(point) if np.isscalar(point) else float(point[-1])
        theta, in_z, point = 0.0, None, (x,)
    seq = system.sequence(theta)
    r, logd, _ = (branch_stats(seq.map_at(0), np.array([x]), n)
                  if seq.constant else
                  _sequence_branch_stats(seq, x, n))
    rs = r[:, 0]
    ft = float(logd[:, 0].sum() / n)
    r_mean = float(rs.mean())
    r_last = float(rs[-1])
    vf = visit_frequency(seq, x, n, eps) if eps else None
    return ExpansionRecord(point, n, ft, r_mean, r_last, ft > lam,
                           r_mean < delta**2 and r_last > 0, in_z, vf)


def _sequence_branch_stats(seq, x, n):
    from .branches import track_branch
    try:
        br = track_branch(seq, x, n)
        rs = np.array(br.r_history)
    except HitCritical as ex:
        rs = np.zeros(n)
        rs[:len(ex.branch.r_history)] = ex.branch.r_history
    logd = np.empty((n, 1))
    y = float(x)
    for j in range(n):
        m = seq.map_at(j)
        d = abs(float(m.derivative(y)))
        logd[j, 0] = math.log(d) if d > 1e-300 else -np.inf
        y = float(m.evaluator(y))
    return rs.reshape(-1, 1), logd, None


@dataclass(frozen=True)
class DecayTable:
    rows: tuple      # (n, fraction, measure, bound, delta, lam, samples, seed)
    domain_length: float

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "fraction", "bound", "delta", "lambda",
                        "samples", "seed"])
            for (n, frac, _, bound, delta, lam, samples, seed) in self.rows:
                w.writerow([n, repr(frac), repr(bound), repr(delta),
                            repr(lam), samples, seed])

    def fractions(self, delta):
        return {n: f for (n, f, _, _, d, _, _, _) in self.rows if d == delta}

    def deltas(self):
        return sorted({row[4] for row in self.rows})

    def passing_deltas(self):
        """Deltas whose empirical fraction sits below the bound at every n."""
        good = []
        for d in self.deltas():
            rows = [row for row in self.rows if row[4] == d]
            if all(row[1] <= row[3] for row in rows):
                good.append(d)
        return good


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
    cloud = system.sample(make_generator(seed), samples)
    r, logd, _ = _cloud_branch_stats(system, cloud, max(n_list))
    # running sums over the depths, added in np.cumsum's order but kept
    # only at the listed n
    sum_r, sum_l = r[0].copy(), logd[0].copy()
    sums = {}
    for j in range(max(n_list)):
        if j:
            sum_r += r[j]
            sum_l += logd[j]
        if j + 1 in n_list:
            sums[j + 1] = sum_r / (j + 1), sum_l / (j + 1)
    rows = []
    length = system.sequence(0.0).domain.length
    for n in n_list:
        mean_r, mean_l = sums[n]
        in_y = mean_l > lam
        bound = length * math.exp(-n * lam / 2.0)
        for d in deltas:
            in_a = (mean_r < d * d) & (r[n - 1] > 0)
            frac = float((in_a & in_y).mean())
            rows.append((n, frac, frac * length, bound, d, lam,
                         samples, int(seed)))
    return DecayTable(tuple(rows), length)


# ---------------------------------------------------------------------------
# empirical regularity constant for the log-derivative condition
# ---------------------------------------------------------------------------

def estimate_f2(skew: SkewProduct, samples, seed, pairs_per_sample=4):
    """Empirical sup of |dlog|d_x f|| * dist_vert / dist over close pairs.

    Pairs (z, w) are admissible when dist(z, w) < dist_vert(z, crit)/2 and
    w stays inside the phase space; the returned value estimates the
    regularity constant of the vertical log-derivative.
    """
    if samples < 10**3:
        raise ValueError("need at least 1e3 samples")
    rng = make_generator(seed)
    dom = skew.fiber_domain
    best = 0.0
    admissible = 0
    th = rng.uniform(0.0, 1.0, samples)
    xs = rng.uniform(dom.lo, dom.hi, samples)
    angles = rng.uniform(0.0, 2.0 * math.pi, (samples, pairs_per_sample))
    radii = rng.uniform(0.0, 1.0, (samples, pairs_per_sample))
    for i in range(samples):
        t, x = float(th[i]), float(xs[i])
        if skew.fiber_criticals is not None:
            cps = skew.fiber_criticals(t)
        else:
            from .maps import find_critical_points
            cps = find_critical_points(lambda u: skew.fiber_dx(t, u), dom,
                                       grid=2**10)
        dv = min((abs(x - c) for c in cps), default=1.0)
        if dv <= 0.0:
            continue
        fz = abs(float(skew.fiber_dx(t, x)))
        if fz <= 1e-300:
            continue
        for q in range(pairs_per_sample):
            rad = 0.999 * 0.5 * dv * float(radii[i, q])
            if rad == 0.0:
                continue
            dt = rad * math.cos(float(angles[i, q]))
            dx = rad * math.sin(float(angles[i, q]))
            tw, xw = (t + dt) % 1.0, x + dx
            if not dom.lo <= xw <= dom.hi:
                continue
            fw = abs(float(skew.fiber_dx(tw, xw)))
            if fw <= 1e-300:
                continue
            dist = math.hypot(min(abs(dt), 1.0 - abs(dt)), dx)
            if dist == 0.0 or dist >= 0.5 * dv:
                continue
            admissible += 1
            ratio = abs(math.log(fz) - math.log(fw)) * dv / dist
            if ratio > best:
                best = ratio
    if admissible == 0:
        raise EmptySample("no admissible pairs were drawn")
    return best
