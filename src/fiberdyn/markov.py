"""Induced Markov maps for a single multimodal interval map.

The construction needs a finite partition whose endpoint set is forward
invariant (critical orbits must close up, as for Misiurewicz-like maps).
For a point x the inducing time is the first iterate k at least N whose
branch image covers the partition cell of the k-th orbit point together
with both neighbouring cells; the branch pullback of that cell is then a
domain interval on which the induced map is a monotone surjection onto the
cell.  Certification checks image exactness, minimum image length,
constancy of (k, I) on each branch, and sampled distortion.  N and the
depth-8 seed cells come from one walk of the partition levels.  Discovery
and constancy checks stream their points through `inducing_times`, which
answers LANE_BATCH (4096) points at a time with one lockstep walk and one
bisection loop per dependency level: each step maps the branch images and
pulls that step's cuts back in one call, and once the walk ends the cells
of all covered lanes are pulled back in one more.  The walk answers in
columns (k, cell ends, cell index, failure step), and an answer becomes a
tuple or an exception only as it is yielded, so the 2,560 constancy
samples of 256 branches walk together without per-lane Python objects.
Certification walks its orbits as lanes through `_walk`, adding each
`maps.log_abs` term in order; summability moves its probes with
`compose_lanes`.  Every answer equals the one-point result.
"""

import bisect as _bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .branches import (LANE_BATCH, _partition_levels, bisect_preimages,
                       compose_lanes, image_step, min_max, track_branch)
from .errors import (CapExceeded, ClosureDiverges, DegenerateGap,
                     EscapedDomain, HitCritical, InducingTimeNotFound,
                     NotMonotone)
from .maps import IntervalMap, constant_sequence, log_abs
from .rng import make_generator

ENDPOINT_TOL = 1e-9


def _near(pts, v, tol):
    """Whether v lies within tol of an entry of the sorted list pts."""
    i = _bisect.bisect_left(pts, v)
    return ((i > 0 and abs(pts[i - 1] - v) <= tol)
            or (i < len(pts) and abs(pts[i] - v) <= tol))


def _branch_at(los, his, x):
    """Index of the branch [los[i], his[i]] containing x, or -1.

    The branches are disjoint and sorted by left endpoint; x may overshoot
    a right endpoint by 1e-12.
    """
    i = _bisect.bisect_right(los, x) - 1
    return i if i >= 0 and x <= his[i] + 1e-12 else -1


def _branches_at(los, his, xs):
    """_branch_at for a float array xs, with los and his as float arrays."""
    i = np.searchsorted(los, xs, side="right") - 1
    inside = i >= 0
    inside[inside] = xs[inside] <= his[i[inside]] + 1e-12
    return np.where(inside, i, -1)


def _walk(m: IntervalMap, xs, ks):
    """(log|(f^k)'(x)|, f^k(x)) for every lane x = xs[i], k = ks[i].

    A lane adds the log_abs terms of |f'| at its orbit points left to
    right, as a one-point loop does.  From the first step whose |f'| is
    critical its log is -inf for good, and its point keeps moving.  Lanes
    are walked LANE_BATCH at a time.
    """
    ys = np.array(xs, dtype=float).ravel()
    ks = np.broadcast_to(ks, ys.shape)
    logs = np.zeros(ys.size)
    for s in range(0, ys.size, LANE_BATCH):
        # views: writes to y and ld land in ys and logs
        y, k, ld = (v[s:s + LANE_BATCH] for v in (ys, ks, logs))
        for j in range(int(k.max(initial=0))):
            live = np.flatnonzero(k > j)
            terms = log_abs(m.derivative(y[live]))
            # a -inf sum takes no later term, not even an inf one
            sums = np.where(terms == -np.inf, terms, ld[live])
            ld[live] = np.add(sums, terms, out=sums, where=sums != -np.inf)
            y[live] = m.evaluator(y[live])
    return logs, ys


def _nearest_distance(pts, y):
    """Distance from y to the nearest entry of the sorted float array pts,
    for a float or elementwise for an array (NaN for a NaN y)."""
    i = np.searchsorted(pts, y)
    return np.minimum(np.abs(pts[np.maximum(i - 1, 0)] - y),
                      np.abs(pts[np.minimum(i, pts.size - 1)] - y))


def _endpoint_defects(m: IntervalMap, endpoints):
    """Distance from f(e) to the sorted endpoint set, for each endpoint e."""
    pts = np.asarray(endpoints, dtype=float)
    return _nearest_distance(pts, compose_lanes([m], pts)).tolist()


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
        return max(_endpoint_defects(m, self.endpoints))

    def near_endpoint(self, y, tol=1e-12):
        """_near of the endpoints, for a float or elementwise for an array."""
        return _nearest_distance(np.asarray(self.endpoints), y) <= tol


def _forward_closure(m: IntervalMap, points):
    pts = sorted(points)
    queue = list(pts)
    while queue:
        p = queue.pop()
        v = float(p)
        for _ in range(64):
            v = float(m.evaluator(v))
            if _near(pts, v, ENDPOINT_TOL):
                break
            _bisect.insort(pts, v)
            queue.append(v)
        else:
            raise ClosureDiverges(
                f"orbit of {p!r} found no endpoint within 64 steps")
    return pts


def _preimages(m: IntervalMap, values):
    """All solutions of f(y) = v, one per monotone branch whose image holds
    v, value by value and branch by branch, from one pullback call."""
    dom = m.domain
    knots = [dom.lo, *m.critical_points, dom.hi]
    f_knots = compose_lanes([m], knots).tolist()
    laps = [(u, v, min(fu, fv), max(fu, fv)) for u, v, fu, fv
            in zip(knots, knots[1:], f_knots, f_knots[1:])]
    lanes = [(value, u, v) for value in values
             for u, v, lo, hi in laps if lo <= value <= hi]
    return bisect_preimages([m], *zip(*lanes)).tolist() if lanes else []


def build_partition(m: IntervalMap, depth):
    """Forward-invariant partition from critical orbits plus preimages.

    Endpoints start from the domain boundary and the critical points, are
    closed under the map (ClosureDiverges if an orbit will not land back
    within ENDPOINT_TOL of the set within 64 steps), then refined `depth`
    times by taking preimages of all current endpoints; preimages keep the
    set closed since they map onto existing endpoints.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    base = {m.domain.lo, m.domain.hi, *m.critical_points}
    pts = _forward_closure(m, base)
    for _ in range(depth):
        new = list(pts)
        for y in _preimages(m, pts):
            if not _near(new, y, 1e-12):
                _bisect.insort(new, y)
        pts = new
    return MarkovPartition.from_endpoints(m, pts)


def monotone_scale(m: IntervalMap, part: MarkovPartition, n_cap=30):
    """Smallest n whose depth-n monotone cells are shorter than min_len/4."""
    return _scale_and_cells(m, part, n_cap, 1)[0]


def _scale_and_cells(m, part, n_cap, depth):
    """(monotone_scale, the depth-`depth` monotone cells) from one walk;
    levels past N have a cap of 10**6 cells, not monotone_scale's 10**5."""
    target = part.min_len / 4.0
    levels = enumerate(_partition_levels(constant_sequence(m), cap=10**6), 1)
    for N, cells in itertools.islice(levels, n_cap):
        if len(cells) > 10**5:
            raise CapExceeded(f"{len(cells)} cells exceed cap {10**5}")
        if N == depth:
            at_depth = cells
        if max(c.hi - c.lo for c in cells) < target:
            break
    else:
        raise InducingTimeNotFound(
            n_cap, f"no partition scale N: depth-n monotone cells stay longer "
                   f"than min_len/4 = {target!r} up to the depth cap "
                   f"n_cap={n_cap}")
    for _, at_depth in itertools.islice(levels, max(depth - N, 0)):
        pass                    # the last level walked here is `depth`
    return N, at_depth


def _induce(m: IntervalMap, part: MarkovPartition, xs, N, k_max):
    """Inducing times of anchors interior to the domain, in one lockstep walk.

    The walk (_cover) finds every anchor's inducing time k, image cell and
    depth-k branch; then the cells of all covered anchors are pulled back
    into their branches in one ragged-depth bisect_preimages call, lane i
    through k[i] maps.  The walk's temporaries are gone by then, so that
    call holds only the columns.

    Returns the answers in columns (k, lo, hi, ci, fail), one row an anchor:
    a row with fail -1 answers (k, (lo, hi), ci); any other row failed at
    step fail, with HitCritical(fail) for fail < k_max and
    InducingTimeNotFound(k_max) for fail == k_max.
    """
    eps = np.asarray(part.endpoints)
    k, ci, fail, lo, hi = _cover(m, eps, np.asarray(xs, dtype=float), N,
                                 k_max)
    done = np.flatnonzero(fail < 0)
    if done.size:
        c, depths = ci[done], np.tile(k[done], 2)
        ends = bisect_preimages([m] * int(depths.max()),
                                np.concatenate([eps[c], eps[c + 1]]),
                                np.tile(lo[done], 2), np.tile(hi[done], 2),
                                depths=depths)
        lo[done], hi[done] = min_max(*np.split(ends, 2))
    return k, lo, hi, ci, fail


def _cover(m, eps, x, N, k_max):
    """The walk of _induce: columns (k, ci, fail, t_lo, t_hi), with
    [t_lo, t_hi] the depth-k branch of each covered anchor.

    Step j maps the branch image of every live lane with one image_step and
    pulls the new cuts back through the first j maps with one
    bisect_preimages call, so each lane's domain is the one track_branch
    finds.  A lane stops at the first k >= N whose image covers its cell
    (ci) and both neighbouring cells, or fails as _induce says.
    """
    k, ci = np.zeros(x.size, dtype=int), np.zeros(x.size, dtype=int)
    fail = np.full(x.size, k_max)
    t_lo, t_hi = np.full(x.size, m.domain.lo), np.full(x.size, m.domain.hi)
    lane = np.arange(x.size)
    a, b, y = t_lo.copy(), t_hi.copy(), x.copy()
    lo_to_lo = np.ones(x.size, dtype=bool)
    for j in range(k_max):
        if not lane.size:
            break
        hit, lo, hi, fa, fb, y = image_step(m.evaluator, m.critical_points,
                                            a, b, y)
        # a cut below y moves the endpoint that maps to a (t_lo when
        # lo_to_lo), a cut above y the one that maps to b; a lane that hit a
        # critical point pulls nothing back and is dropped below
        sets_lo = ~hit & np.where(lo_to_lo, lo != a, hi != b)
        sets_hi = ~hit & np.where(lo_to_lo, hi != b, lo != a)
        cuts = np.concatenate([np.where(lo_to_lo, lo, hi)[sets_lo],
                               np.where(lo_to_lo, hi, lo)[sets_hi]])
        keep = fa <= fb
        a, b = np.where(keep, fa, fb), np.where(keep, fb, fa)
        lo_to_lo = lo_to_lo == keep
        del lo, hi, fa, fb, keep   # freed before the pullback, the peak
        at_lo, at_hi = lane[sets_lo], lane[sets_hi]
        t_lo[at_lo], t_hi[at_hi] = np.split(bisect_preimages(
            [m] * j, cuts, np.concatenate([t_lo[at_lo], x[at_hi]]),
            np.concatenate([x[at_lo], t_hi[at_hi]])), [at_lo.size])
        c = np.clip(np.searchsorted(eps, y, side="right") - 1,
                    0, eps.size - 2)
        done = (~hit & (j + 1 >= N)
                & (a <= eps[np.maximum(c - 1, 0)] + ENDPOINT_TOL)
                & (b >= eps[np.minimum(c + 2, eps.size - 1)] - ENDPOINT_TOL))
        covered = lane[done]
        k[covered], ci[covered], fail[covered] = j + 1, c[done], -1
        fail[lane[hit]] = j
        go = ~(hit | done)
        lane, a, b, y, lo_to_lo = (v[go] for v in (lane, a, b, y, lo_to_lo))
    return k, ci, fail, t_lo, t_hi


def _answers(columns, k_max):
    """The answer objects of _induce's rows, in order, made a slice of rows
    at a time."""
    for s in range(0, columns[0].size, 256):
        for k, lo, hi, ci, fail in zip(*(v[s:s + 256].tolist()
                                         for v in columns)):
            yield ((k, (lo, hi), ci) if fail < 0 else HitCritical(fail)
                   if fail < k_max else InducingTimeNotFound(k_max))


def inducing_times(m: IntervalMap, part: MarkovPartition, xs, N=None,
                   k_max=200):
    """inducing_time for an iterable of points, yielding one answer a point.

    Item i is what ``inducing_time(m, part, xs[i], N, k_max)`` returns, or
    the HitCritical, InducingTimeNotFound or ValueError it raises.  Points
    are read LANE_BATCH at a time, and a batch is answered before more are
    read; its anchors off the partition endpoints and inside the domain go
    through one lockstep walk, which answers in columns.  An answer becomes
    its tuple or exception only as it is yielded.  N defaults to
    monotone_scale, computed once, when the first point needs it.
    """
    dom = m.domain
    xs = iter(xs)
    while (batch := np.fromiter(itertools.islice(xs, LANE_BATCH),
                                float)).size:
        # the endpoint test for the whole batch, then the domain test
        near = part.near_endpoint(batch)
        walk = ~near & (dom.lo < batch) & (batch < dom.hi)
        answers = iter(())
        if walk.any():
            if N is None:
                N = monotone_scale(m, part)
            answers = _answers(_induce(m, part, batch[walk], N, k_max), k_max)
        for w, n in zip(walk.tolist(), near.tolist()):
            yield (next(answers) if w else
                   ValueError("x must be interior to a partition cell") if n
                   else ValueError("anchor must be interior to the domain"))


def inducing_time(m: IntervalMap, part: MarkovPartition, x, N=None,
                  k_max=200):
    """Minimal k >= N whose branch image covers cell(f^k x) and neighbours.

    Returns (k, (lo, hi), cell_index) where [lo, hi] is the branch pullback
    of the partition cell, computed by monotone bisection inside the
    depth-k branch of x.
    """
    result = next(inducing_times(m, part, [x], N, k_max))
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


def assemble_markov(m: IntervalMap, part: MarkovPartition, seeds=10**4,
                    k_max=200, seed=0, check_constancy=True):
    """Discover induced branches from stratified seeds and certify them.

    Discovery seeds one point per depth-8 monotone cell plus uniformly
    drawn extras, skips points already covered, and dedupes by left
    endpoint; leftover gaps between discovered branches are reseeded at
    their midpoints for up to 4 passes.  The certificate reports image
    exactness (both endpoints of f^k(I) on cell endpoints), minimum image
    length, (k, I) constancy at 10 interior samples per branch, coverage,
    and a distortion bound sampled along compositions up to length 3.
    """
    N, strata = _scale_and_cells(m, part, 30, 8)
    dom = m.domain
    points = [0.5 * (c.lo + c.hi) for c in strata]
    rng = make_generator(seed)
    extra = max(0, seeds - len(points))
    points.extend(rng.uniform(dom.lo, dom.hi, extra).tolist())

    los, his, branches = [], [], []

    def discover(xs):
        # a point is skipped when it is read if a branch found earlier
        # covers it, and replayed in order once its batch is answered; an
        # inducing time depends on x alone, so the branch list is the same
        # as for one point at a time
        read, todo = itertools.tee(x for x in xs
                                   if _branch_at(los, his, x) < 0)
        for x, found in zip(read, inducing_times(m, part, todo, N, k_max)):
            # inducing_times answers a point near an endpoint with ValueError
            if _branch_at(los, his, x) >= 0 or isinstance(found, Exception):
                continue
            k, (lo, hi), ci = found
            if _near(los, lo, ENDPOINT_TOL):
                continue
            i = _bisect.bisect_left(los, lo)
            los.insert(i, lo)
            his.insert(i, hi)
            branches.insert(i, (k, lo, hi, ci))

    discover(points)
    for _ in range(4):
        gaps = [(a, b) for a, b in zip([dom.lo, *his], [*los, dom.hi])
                if b - a > 1e-7]
        if not gaps:
            break
        discover(0.5 * (a + b) for a, b in gaps)

    # certification; a cell image only stays cell-aligned along induced
    # iterates when the endpoint set is forward invariant, so that check is
    # part of the certificate
    failures = []
    for e, defect in zip(part.endpoints,
                         _endpoint_defects(m, part.endpoints)):
        if defect > ENDPOINT_TOL:
            failures.append(
                f"partition endpoint {e!r}: image leaves the endpoint set "
                f"by {defect:.3e}; cell images drift off the partition "
                "under induced iterates")
    out = []
    worst_mismatch = 0.0
    min_img = math.inf
    rng2 = make_generator((seed + 1) % 2**64)

    # inducing times at the constancy samples of all branches, computed
    # LANE_BATCH at a time as the loop below consumes them
    lo_a, hi_a = np.array(los), np.array(his)
    samples = np.linspace(lo_a, hi_a, 12, axis=-1)[:, 1:-1]
    found = inducing_times(m, part, (float(s) for ss in samples for s in ss),
                           N, k_max)
    # f^k at both ends and at 17 interior distortion samples of every
    # branch, in one walk
    times = np.array([k for k, *_ in branches], dtype=int)
    lds, ends = (v.reshape(-1, 19) for v in _walk(
        m, np.linspace(lo_a, hi_a, 19, axis=-1), np.repeat(times, 19)))
    for (k, lo, hi, ci), ld, end, ss in zip(branches, lds, ends, samples):
        cell_lo, cell_hi = part.endpoints[ci], part.endpoints[ci + 1]
        img = sorted(end[[0, -1]].tolist())
        mismatch = max(abs(img[0] - cell_lo), abs(img[1] - cell_hi))
        worst_mismatch = max(worst_mismatch, mismatch)
        if mismatch > ENDPOINT_TOL:
            failures.append(f"branch@{lo!r}: image mismatch {mismatch:.3e}")
        min_img = min(min_img, img[1] - img[0])
        ld = ld[1:-1].tolist()
        dist = math.exp(max(ld) - min(ld)) if min(ld) > -math.inf else math.inf
        out.append(InducedBranch(lo, hi, k, ci, dist))
        if check_constancy:
            for s in ss:
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

    # distortion along sampled compositions up to length 3; the 200 starts
    # walk as lanes, and a lane stops off the branches or at a flat point
    K_hat = max((b.distortion_sample for b in out), default=1.0)
    for length in (2, 3):
        x = rng2.uniform(dom.lo, dom.hi, 200)
        logd = np.zeros(x.size)
        path = np.empty((x.size, length), dtype=int)
        live = np.arange(x.size)
        for step in range(length):
            i = _branches_at(lo_a, hi_a, x[live])
            live, i = live[i >= 0], i[i >= 0]
            ld, x[live] = _walk(m, x[live], times[i])
            keep = ld != -math.inf
            live, i = live[keep], i[keep]
            logd[live] += ld[keep]
            path[live, step] = i
        groups = {}
        for p, v in zip(map(tuple, path[live].tolist()), logd[live].tolist()):
            groups.setdefault(p, []).append(v)
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


def fit_cross_ratio_constant(m: IntervalMap, pairs, seed):
    """Empirical constant C with B(f^n, T, J) >= exp(-C |f^n(T)|^2).

    Samples nested pairs inside depth-n monotone cells (n drawn from
    1..8) and returns the smallest C explaining every observed cross-ratio
    drop (0 when no drop is observed, as for nonpositive-Schwarzian maps).
    """
    rng = make_generator(seed)
    seq = constant_sequence(m)
    worst = 0.0
    count = 0
    attempts = 0
    while count < pairs and attempts < 50 * pairs:
        attempts += 1
        n = int(rng.integers(1, 9))
        x = float(rng.uniform(m.domain.lo, m.domain.hi))
        try:
            br = track_branch(seq, x, n)
        except HitCritical:
            continue
        if br.t_hi - br.t_lo < 1e-9:
            continue
        u = sorted(rng.uniform(br.t_lo, br.t_hi, 4))
        T, J = (u[0], u[3]), (u[1], u[2])
        try:
            B = cross_ratio_operator(m, n, T, J)
        except (DegenerateGap, NotMonotone, ValueError):
            continue
        img = sorted(_walk(m, T, n)[1].tolist())
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
    dispersion: float          # std of per-probe means
    escaped: int


def summability_stat(branches, m: IntervalMap, orbit_len, probes, seed):
    """Empirical mean inducing time along induced-map orbits.

    Orbits that step outside the discovered branch domains are counted as
    escaped and excluded from the averages.
    """
    branches = sorted(branches, key=lambda b: b.lo)
    coverage = sum(b.length for b in branches) / m.domain.length
    if coverage < 0.95:
        raise ValueError(f"branches cover only {coverage:.3f} of the domain")
    los, his, times = (np.array([getattr(b, f) for b in branches])
                       for f in ("lo", "hi", "time"))
    # every probe is a lane; a lane that leaves the branches escapes
    x = make_generator(seed).uniform(m.domain.lo, m.domain.hi, probes)
    total = np.zeros(probes, dtype=int)
    live = np.arange(probes)
    for _ in range(orbit_len):
        i = _branches_at(los, his, x[live])
        live, i = live[i >= 0], i[i >= 0]
        total[live] += times[i]
        x[live] = compose_lanes([m] * times.max(), x[live], depths=times[i])
    if not live.size:
        raise EscapedDomain("every probe escaped the branch domains")
    arr = total[live] / orbit_len
    return SummabilityStat(float(arr.mean()), float(arr.std()),
                           probes - live.size)
