"""Induced Markov maps for a single multimodal interval map.

The construction needs a finite partition whose endpoint set is forward
invariant (critical orbits must close up, as for Misiurewicz-like maps).
For a point x the inducing time is the first iterate k at least N whose
branch image covers the partition cell of the k-th orbit point together
with both neighbouring cells; the branch pullback of that cell is then a
domain interval on which the induced map is a monotone surjection onto the
cell.  Certification checks image exactness, minimum image length,
constancy of (k, I) on each branch, and sampled distortion.  Discovery
and constancy checks compute inducing times in lockstep batches
(`inducing_times`), whose entries equal the one-point results.
"""

import bisect as _bisect
import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .branches import (LANE_BATCH, bisect_preimage, bisect_preimages,
                       compose_lanes, min_max, monotonicity_partition,
                       track_branch, track_branches)
from .errors import (ClosureDiverges, DegenerateGap, EscapedDomain,
                     HitCritical, InducingTimeNotFound, NotMonotone)
from .maps import IntervalMap, constant_sequence
from .rng import make_generator

ENDPOINT_TOL = 1e-9


@dataclass(frozen=True)
class MarkovPartition:
    """Finite partition of the domain with forward-invariant endpoints."""

    endpoints: tuple
    min_len: float

    @classmethod
    def from_endpoints(cls, m: IntervalMap, endpoints, check=True):
        pts = tuple(sorted(float(e) for e in endpoints))
        if len(pts) < 2:
            raise ValueError("need at least two endpoints")
        min_len = min(b - a for a, b in zip(pts, pts[1:]))
        if min_len <= 0:
            raise ValueError("degenerate partition cell")
        part = cls(pts, min_len)
        if check:
            worst = part.invariance_defect(m)
            if worst > ENDPOINT_TOL:
                raise ValueError(
                    f"endpoint set not forward invariant (defect {worst:.3e})")
        return part

    def invariance_defect(self, m: IntervalMap):
        """Largest distance from f(endpoint) to the endpoint set."""
        pts = np.asarray(self.endpoints)
        worst = 0.0
        for e in self.endpoints:
            fe = float(m.evaluator(e))
            worst = max(worst, float(np.abs(pts - fe).min()))
        return worst

    @property
    def cells(self):
        return tuple(zip(self.endpoints, self.endpoints[1:]))

    def cell_index(self, y):
        """Index of the cell containing y (clipped to the domain)."""
        i = _bisect.bisect_right(self.endpoints, y) - 1
        return min(max(i, 0), len(self.endpoints) - 2)

    def near_endpoint(self, y, tol=1e-12):
        i = _bisect.bisect_left(self.endpoints, y)
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.endpoints) and abs(self.endpoints[j] - y) <= tol:
                return True
        return False


def _forward_closure(m: IntervalMap, points, orbit_cap, tol):
    pts = sorted(points)

    def near(v):
        i = _bisect.bisect_left(pts, v)
        for j in (i - 1, i):
            if 0 <= j < len(pts) and abs(pts[j] - v) <= tol:
                return True
        return False

    queue = list(pts)
    while queue:
        p = queue.pop()
        v = float(p)
        for _ in range(orbit_cap):
            v = float(m.evaluator(v))
            if near(v):
                break
            _bisect.insort(pts, v)
            queue.append(v)
        else:
            raise ClosureDiverges(
                f"orbit of {p!r} found no endpoint within {orbit_cap} steps")
    return pts


def _preimages(m: IntervalMap, value):
    """All solutions of f(y) = value, one per monotone branch."""
    dom = m.domain
    knots = [dom.lo, *m.critical_points, dom.hi]
    out = []
    for u, v in zip(knots, knots[1:]):
        fu, fv = float(m.evaluator(u)), float(m.evaluator(v))
        lo, hi = min(fu, fv), max(fu, fv)
        if lo <= value <= hi:
            out.append(bisect_preimage([m], value, u, v))
    return out


def build_partition(m: IntervalMap, depth, orbit_cap=64, tol=ENDPOINT_TOL):
    """Forward-invariant partition from critical orbits plus preimages.

    Endpoints start from the domain boundary and the critical points, are
    closed under the map (ClosureDiverges if an orbit will not land back on
    the set within orbit_cap steps), then refined `depth` times by taking
    preimages of all current endpoints; preimages keep the set closed since
    they map onto existing endpoints.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    base = {m.domain.lo, m.domain.hi, *m.critical_points}
    pts = _forward_closure(m, base, orbit_cap, tol)
    for _ in range(depth):
        new = list(pts)
        for e in list(pts):
            for y in _preimages(m, e):
                i = _bisect.bisect_left(new, y)
                close = any(0 <= j < len(new) and abs(new[j] - y) <= 1e-12
                            for j in (i - 1, i))
                if not close:
                    _bisect.insort(new, y)
        pts = new
    return MarkovPartition.from_endpoints(m, pts)


def monotone_scale(m: IntervalMap, part: MarkovPartition, n_cap=30,
                   cell_cap=10**5):
    """Smallest n whose depth-n monotone cells are shorter than min_len/4."""
    seq = constant_sequence(m)
    target = part.min_len / 4.0
    for n in range(1, n_cap + 1):
        p = monotonicity_partition(seq, n, cell_cap)
        if max(hi - lo for lo, hi in p.cells) < target:
            return n
    raise InducingTimeNotFound(
        n_cap, f"no partition scale N: depth-n monotone cells stay longer "
               f"than min_len/4 = {target!r} up to the depth cap "
               f"n_cap={n_cap}")


def _covering_ks(m: IntervalMap, part: MarkovPartition, xs, N, k_max,
                 hit_tol=1e-12):
    """Image-side search for the minimal covering iterate k >= N, per lane.

    All lanes step in lockstep; returns arrays (k, ci) with k = 0 where the
    search failed and the failure per lane (HitCritical or
    InducingTimeNotFound, None on success).
    """
    dom = m.domain
    y = np.array(xs, dtype=float)
    a, b = np.full(y.size, dom.lo), np.full(y.size, dom.hi)
    eps = np.asarray(part.endpoints)
    ks, cis = np.zeros(y.size, dtype=int), np.zeros(y.size, dtype=int)
    errors = [None] * y.size
    live = np.arange(y.size)
    for j in range(k_max):
        if not live.size:
            break
        yl, al, bl = y[live], a[live], b[live]
        on_crit = np.zeros(live.size, dtype=bool)
        for c in m.critical_points:
            on_crit |= np.abs(yl - c) <= hit_tol
            below = (al < c) & (c < yl)
            al = np.where(below, c, al)
            bl = np.where(~below & (yl < c) & (c < bl), c, bl)
        for i in live[on_crit].tolist():
            errors[i] = HitCritical(j)
        keep = ~on_crit
        live, al, bl, yl = live[keep], al[keep], bl[keep], yl[keep]
        fa, fb, yl = np.split(compose_lanes([m], np.concatenate([al, bl, yl])),
                              3)
        a[live], b[live] = min_max(fa, fb)
        y[live] = yl
        k = j + 1
        if k >= N:
            ci = np.clip(np.searchsorted(eps, yl, side="right") - 1,
                         0, eps.size - 2)
            lo_need = eps[np.maximum(ci - 1, 0)]
            hi_need = eps[np.minimum(ci + 2, eps.size - 1)]
            done = ((a[live] <= lo_need + ENDPOINT_TOL)
                    & (b[live] >= hi_need - ENDPOINT_TOL))
            ks[live[done]], cis[live[done]] = k, ci[done]
            live = live[~done]
    for i in live.tolist():
        errors[i] = InducingTimeNotFound(k_max)
    return ks, cis, errors


def inducing_times(m: IntervalMap, part: MarkovPartition, xs, N=None,
                   k_max=200):
    """inducing_time for many points; one result or exception per point.

    Entry i is what ``inducing_time(m, part, xs[i], N, k_max)`` returns,
    or the HitCritical, InducingTimeNotFound or ValueError it raises.
    Points are processed LANE_BATCH at a time: each batch runs the covering
    search in lockstep, tracks all branches with one track_branches call
    and pulls the image cells back with one bisect_preimages call per
    inducing time.
    """
    xs = [float(x) for x in xs]
    out = [ValueError("x must be interior to a partition cell")
           if part.near_endpoint(x) else None for x in xs]
    todo = [i for i, r in enumerate(out) if r is None]
    if todo and N is None:
        N = monotone_scale(m, part)
    dom = m.domain
    seq = constant_sequence(m)
    eps = np.asarray(part.endpoints)
    for s in range(0, len(todo), LANE_BATCH):
        lanes = todo[s:s + LANE_BATCH]
        ks, cis, errors = _covering_ks(m, part, [xs[i] for i in lanes], N,
                                       k_max)
        for pos, (i, err) in enumerate(zip(lanes, errors)):
            if err is None and not dom.lo < xs[i] < dom.hi:
                err = ValueError("anchor must be interior to the domain")
                ks[pos] = 0
            out[i] = err
        ok = np.flatnonzero(ks > 0)
        ks, cis = ks[ok], cis[ok]
        branches = track_branches(seq, [xs[lanes[i]] for i in ok], ks)
        t_lo, t_hi = branches.t_lo, branches.t_hi
        for k in np.unique(ks).tolist():
            sel = np.flatnonzero(ks == k)
            ci = cis[sel]
            ends = bisect_preimages([m] * k,
                                    np.concatenate([eps[ci], eps[ci + 1]]),
                                    np.tile(t_lo[sel], 2),
                                    np.tile(t_hi[sel], 2))
            lo, hi = min_max(ends[:sel.size], ends[sel.size:])
            for i, c, u, v in zip(ok[sel].tolist(), ci.tolist(), lo.tolist(),
                                  hi.tolist()):
                out[lanes[i]] = (k, (u, v), c)
    return out


def _streamed_inducing_times(m, part, xs, N, k_max):
    """inducing_times over an iterable, computed LANE_BATCH points at a time."""
    xs = iter(xs)
    while chunk := list(itertools.islice(xs, LANE_BATCH)):
        yield from inducing_times(m, part, chunk, N, k_max)


def inducing_time(m: IntervalMap, part: MarkovPartition, x, N=None,
                  k_max=200):
    """Minimal k >= N whose branch image covers cell(f^k x) and neighbours.

    Returns (k, (lo, hi), cell_index) where [lo, hi] is the branch pullback
    of the partition cell, computed by monotone bisection inside the
    depth-k branch of x.
    """
    (result,) = inducing_times(m, part, [x], N, k_max)
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class InducedBranch:
    lo: float
    hi: float
    time: int
    image_cell: int
    distortion_sample: float = None

    @property
    def length(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class MarkovCertificate:
    branches: tuple
    coverage: float
    image_exactness: float      # worst endpoint mismatch of f^k(I) vs cell
    min_image_length: float
    constancy_ok: bool
    K_hat: float
    N: int
    failures: tuple

    def to_json(self):
        return json.dumps({
            "branch_count": len(self.branches),
            "coverage": self.coverage,
            "image_exactness": self.image_exactness,
            "min_image_length": self.min_image_length,
            "constancy_ok": self.constancy_ok,
            "K_hat": self.K_hat,
            "N": self.N,
            "failures": list(self.failures),
        }, sort_keys=True)


def branches_to_csv(branches, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "lo", "hi", "k", "image_cell", "distortion_sample"])
        for i, br in enumerate(branches):
            w.writerow([i, repr(br.lo), repr(br.hi), br.time, br.image_cell,
                        repr(br.distortion_sample)])


def _log_deriv_n(m, x, k):
    s = 0.0
    y = float(x)
    for _ in range(k):
        d = abs(float(m.derivative(y)))
        if d <= 1e-300:
            return -math.inf
        s += math.log(d)
        y = float(m.evaluator(y))
    return s


def assemble_markov(m: IntervalMap, part: MarkovPartition, seeds=10**4,
                    N=None, k_max=200, seed=0, gap_rounds=4,
                    strat_depth=8, check_constancy=True,
                    constancy_samples=10, composition_probes=200):
    """Discover induced branches from stratified seeds and certify them.

    Discovery seeds one point per depth-`strat_depth` monotone cell plus
    uniformly drawn extras, skips points already covered, and dedupes by
    left endpoint; leftover gaps between discovered branches are reseeded
    at their midpoints for `gap_rounds` passes.  The certificate reports
    image exactness (both endpoints of f^k(I) on cell endpoints), minimum
    image length, (k, I) constancy on interior samples, coverage, and a
    sampled distortion bound along compositions up to length 3.
    """
    if N is None:
        N = monotone_scale(m, part)
    dom = m.domain
    seq = constant_sequence(m)
    strat = monotonicity_partition(seq, strat_depth, cap=10**6)
    points = [0.5 * (lo + hi) for lo, hi in strat.cells]
    rng = make_generator(seed)
    extra = max(0, seeds - len(points))
    points.extend(rng.uniform(dom.lo, dom.hi, extra).tolist())

    los, his, branches = [], [], []

    def covered(x):
        i = _bisect.bisect_right(los, x) - 1
        return i >= 0 and x <= his[i] + 1e-12

    def discover(xs):
        # inducing times of a chunk are computed in one batch (skipping
        # points already covered before the chunk), then the points are
        # replayed in order; an inducing time depends on x alone, so the
        # branch list is the same as for one point at a time
        xs = [float(x) for x in xs]
        for s in range(0, len(xs), LANE_BATCH):
            chunk = xs[s:s + LANE_BATCH]
            todo = [x for x in chunk
                    if not part.near_endpoint(x) and not covered(x)]
            found = dict(zip(todo, inducing_times(m, part, todo, N, k_max)))
            for x in chunk:
                if (part.near_endpoint(x) or covered(x)
                        or isinstance(found[x], Exception)):
                    continue
                k, (lo, hi), ci = found[x]
                i = _bisect.bisect_left(los, lo)
                if any(0 <= j < len(los) and abs(los[j] - lo) <= ENDPOINT_TOL
                       for j in (i - 1, i)):
                    continue
                los.insert(i, lo)
                his.insert(i, hi)
                branches.insert(i, (k, lo, hi, ci))

    discover(points)
    for _ in range(gap_rounds):
        gaps = []
        frontier = dom.lo
        for lo, hi in zip(los, his):
            if lo - frontier > 1e-7:
                gaps.append((frontier, lo))
            frontier = hi
        if dom.hi - frontier > 1e-7:
            gaps.append((frontier, dom.hi))
        if not gaps:
            break
        discover(0.5 * (glo + ghi) for glo, ghi in gaps)

    # certification; a cell image only stays cell-aligned along induced
    # iterates when the endpoint set is forward invariant, so that check is
    # part of the certificate
    failures = []
    pts = np.asarray(part.endpoints)
    for e in part.endpoints:
        fe = float(m.evaluator(e))
        defect = float(np.abs(pts - fe).min())
        if defect > ENDPOINT_TOL:
            failures.append(
                f"partition endpoint {e!r}: image leaves the endpoint set "
                f"by {defect:.3e}; cell images drift off the partition "
                "under induced iterates")
    out = []
    worst_mismatch = 0.0
    min_img = math.inf
    rng2 = make_generator(seed + 1)

    def constancy_points(lo, hi):
        return np.linspace(lo, hi, constancy_samples + 2)[1:-1]

    # inducing times at the constancy samples of all branches, computed
    # LANE_BATCH at a time as the loop below consumes them
    found = _streamed_inducing_times(
        m, part, (float(s) for (_, lo, hi, _) in branches
                  for s in constancy_points(lo, hi)), N, k_max)
    for (k, lo, hi, ci) in branches:
        cell_lo, cell_hi = part.endpoints[ci], part.endpoints[ci + 1]
        img = sorted(float(seq.compose(e, k)) for e in (lo, hi))
        mismatch = max(abs(img[0] - cell_lo), abs(img[1] - cell_hi))
        worst_mismatch = max(worst_mismatch, mismatch)
        if mismatch > ENDPOINT_TOL:
            failures.append(f"branch@{lo!r}: image mismatch {mismatch:.3e}")
        min_img = min(min_img, img[1] - img[0])
        samples = np.linspace(lo, hi, 19)[1:-1]
        lds = [_log_deriv_n(m, s, k) for s in samples]
        dist = math.exp(max(lds) - min(lds)) if min(lds) > -math.inf else math.inf
        out.append(InducedBranch(lo, hi, k, ci, dist))
        if check_constancy:
            for s in constancy_points(lo, hi):
                result = next(found)
                if isinstance(result, Exception):
                    failures.append(
                        f"branch@{lo!r}: sample {float(s)!r} failed")
                    continue
                k2, (lo2, hi2), ci2 = result
                if k2 != k or ci2 != ci or abs(lo2 - lo) > ENDPOINT_TOL \
                        or abs(hi2 - hi) > ENDPOINT_TOL:
                    failures.append(
                        f"branch@{lo!r}: (k, I) not constant at "
                        f"{float(s)!r}")
    coverage = sum(b.length for b in out) / dom.length

    # distortion along sampled compositions up to length 3
    K_hat = max((b.distortion_sample for b in out), default=1.0)
    for length in (2, 3):
        groups = {}
        starts = rng2.uniform(dom.lo, dom.hi, composition_probes)
        for x0 in starts:
            x = float(x0)
            itinerary = []
            logd = 0.0
            ok = True
            for _ in range(length):
                i = _bisect.bisect_right(los, x) - 1
                if not (0 <= i < len(los) and x <= his[i] + 1e-12):
                    ok = False
                    break
                k = out[i].time
                ld = _log_deriv_n(m, x, k)
                if ld == -math.inf:
                    ok = False
                    break
                logd += ld
                itinerary.append(i)
                x = float(seq.compose(x, k))
            if ok:
                groups.setdefault(tuple(itinerary), []).append(logd)
        for vals in groups.values():
            if len(vals) > 1:
                K_hat = max(K_hat, math.exp(max(vals) - min(vals)))

    constancy_ok = check_constancy and not any(
        "not constant" in f or "failed" in f for f in failures)
    return MarkovCertificate(tuple(out), coverage, worst_mismatch,
                             min_img, constancy_ok, K_hat, N,
                             tuple(failures))


# ---------------------------------------------------------------------------
# cross-ratio diagnostics
# ---------------------------------------------------------------------------

def cross_ratio(T, J):
    """b(T, J) = |J||T| / (|L||R|) for J strictly inside T."""
    t_lo, t_hi = float(T[0]), float(T[1])
    j_lo, j_hi = float(J[0]), float(J[1])
    if not (t_lo <= j_lo < j_hi <= t_hi):
        raise ValueError("J must be a subinterval of T")
    L = j_lo - t_lo
    R = t_hi - j_hi
    if L <= 1e-12 or R <= 1e-12:
        raise DegenerateGap(f"gap components {L!r}, {R!r}")
    return (j_hi - j_lo) * (t_hi - t_lo) / (L * R)


def cross_ratio_operator(m: IntervalMap, k, T, J):
    """B(f^k, T, J): the cross-ratio of the images over the original.

    Requires f^k to be monotone on T (no intermediate image may contain a
    critical point).
    """
    a, b = float(T[0]), float(T[1])
    pts = [a, float(J[0]), float(J[1]), b]
    for _ in range(k):
        for c in m.critical_points:
            if a < c < b:
                raise NotMonotone("an intermediate image meets a critical point")
        pts = [float(m.evaluator(p)) for p in pts]
        a, b = min(pts[0], pts[3]), max(pts[0], pts[3])
    if pts[0] > pts[3]:
        pts = pts[::-1]
    before = cross_ratio(T, J)
    after = cross_ratio((pts[0], pts[3]), (pts[1], pts[2]))
    return after / before


def fit_cross_ratio_constant(m: IntervalMap, pairs, seed, depth_max=8):
    """Empirical constant C with B(f^n, T, J) >= exp(-C |f^n(T)|^2).

    Samples nested pairs inside depth-n monotone cells and returns the
    smallest C explaining every observed cross-ratio drop (0 when no drop
    is observed, as for nonpositive-Schwarzian maps).
    """
    rng = make_generator(seed)
    seq = constant_sequence(m)
    worst = 0.0
    count = 0
    attempts = 0
    while count < pairs and attempts < 50 * pairs:
        attempts += 1
        n = int(rng.integers(1, depth_max + 1))
        x = float(rng.uniform(m.domain.lo, m.domain.hi))
        try:
            br = track_branch(seq, x, n)
        except HitCritical:
            continue
        if br.t_hi - br.t_lo < 1e-9:
            continue
        u = sorted(rng.uniform(br.t_lo, br.t_hi, 4))
        T = (u[0], u[3])
        J = (u[1], u[2])
        try:
            B = cross_ratio_operator(m, n, T, J)
        except (DegenerateGap, NotMonotone, ValueError):
            continue
        img = sorted(float(seq.compose(e, n)) for e in T)
        width2 = (img[1] - img[0]) ** 2
        count += 1
        if B < 1.0 and width2 > 0:
            worst = max(worst, -math.log(B) / width2)
    if count == 0:
        raise ValueError("no admissible nested pairs sampled")
    return worst


# ---------------------------------------------------------------------------
# summability of inducing times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummabilityStat:
    mean_time: float
    per_probe_means: tuple
    dispersion: float          # std of per-probe means
    escaped: int

    def stable_within(self, rel):
        lo, hi = min(self.per_probe_means), max(self.per_probe_means)
        return (hi - lo) <= rel * self.mean_time


def summability_stat(branches, m: IntervalMap, orbit_len, probes, seed):
    """Empirical mean inducing time along induced-map orbits.

    Orbits that step outside the discovered branch domains are counted as
    escaped and excluded from the averages.
    """
    branches = sorted(branches, key=lambda b: b.lo)
    coverage = sum(b.length for b in branches) / m.domain.length
    if coverage < 0.95:
        raise ValueError(f"branches cover only {coverage:.3f} of the domain")
    los = [b.lo for b in branches]
    rng = make_generator(seed)
    seq = constant_sequence(m)
    means = []
    escaped = 0
    for _ in range(probes):
        x = float(rng.uniform(m.domain.lo, m.domain.hi))
        ks = []
        try:
            for _ in range(orbit_len):
                i = _bisect.bisect_right(los, x) - 1
                if not (0 <= i < len(los) and x <= branches[i].hi + 1e-12):
                    raise EscapedDomain(f"orbit left the branches at {x!r}")
                ks.append(branches[i].time)
                x = float(seq.compose(x, branches[i].time))
        except EscapedDomain:
            escaped += 1
            continue
        means.append(sum(ks) / len(ks))
    if not means:
        raise EscapedDomain("every probe escaped the branch domains")
    arr = np.asarray(means)
    return SummabilityStat(float(arr.mean()), tuple(float(v) for v in arr),
                           float(arr.std()), escaped)
