"""Maximal monotone branches, monotonicity partitions and censuses.

A depth-n branch around x is the largest interval whose first n images
never meet the critical set of the map applied at that step.  Branches are
grown image-side: the image interval is cut at critical points and every
cut is pulled back to a domain endpoint by monotone bisection run to float
exhaustion (residual well below the 1e-12 pullback tolerance), so each
endpoint carries a checkable certificate (step, critical value).

Pullbacks with independent solves (the cells of a partition level, the
threshold crossings of every depth of a census, the branches behind Markov
inducing times, the endpoint preimages of a Markov partition refinement
and the probe's trims) go through `bisect_preimages`, the elementwise
replica of `bisect_preimage`: every lane keeps the scalar stopping rule
and best-residual choice, so it equals the scalar call bit for bit.  Each
lane has its own depth, and a bisection step applies map s once, to the
live lanes deeper than s.  A lane loop costs about the same at any narrow
width, so a call with fewer than SCALAR_LANES open lanes runs them through
`bisect_preimage` one by one.
The array loops that follow many branch images at once (the branch-size
statistics and the Markov inducing walk) take their steps with one rule,
`image_step`, which maps the cut ends and the orbit points by separate
lane-shaped calls.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, HitCritical

HIT_TOL = 1e-12
PULLBACK_VALUE_TOL = 1e-13
CENSUS_GUARD = 1e-9
# Lanes solved together by bisect_preimages, and points walked together by
# markov.inducing_times; bounds the working arrays.  At 4096 the 2,560
# constancy samples of 256 Markov branches walk as one.
LANE_BATCH = 4096
# Fewer open lanes than this go through bisect_preimage one by one: a lane
# loop costs about the same at any width this narrow, and the scalar rule
# catches up with it at 32-48 lanes (logistic and two-well, depths 1-6).
SCALAR_LANES = 40


def compose_maps(maps, x):
    return _compose_evaluators([m.evaluator for m in maps], x)


def _compose_evaluators(fs, x):
    for f in fs:
        x = float(f(x))
    return x


def compose_lanes(maps, xs, depths=None):
    """compose_maps over a float array, one evaluator call per map; with
    `depths`, lane i composes maps[:depths[i]], the lanes in depth order."""
    if depths is None:
        return _compose_ascending(maps, xs, None)
    xs, order = np.array(xs, dtype=float), np.argsort(depths, kind="stable")
    xs[order] = _compose_ascending(maps, xs[order], np.take(depths, order))
    return xs


def _compose_ascending(maps, xs, depths):
    """A new float array: lane i of xs composed through maps[:depths[i]]
    (all maps if None).  Depths ascend, so map s applies to one suffix of
    lanes.  xs is copied up front only for a depth-0 lane or no maps, and
    a map result that is its argument (or a view) is copied."""
    xs = np.asarray(xs, dtype=float)
    starts = [0] * len(maps)
    if depths is not None and depths.size and depths[0] < len(maps):
        starts = np.searchsorted(depths, np.arange(len(maps)), "right")
    if not maps or starts[0]:
        xs = xs.copy()
    for m, start in zip(maps, starts):
        if start:
            xs[..., start:] = m.evaluator(xs[..., start:])
        else:                   # all lanes: a new array, no copy back
            fx = np.asarray(m.evaluator(xs), dtype=float)
            xs = fx.copy() if fx is xs or fx.base is not None else fx
    return xs


def min_max(u, v):
    """Elementwise (min(u, v), max(u, v)) with Python's tie and NaN rules."""
    return np.where(v < u, v, u), np.where(v > u, v, u)


def bisect_preimage(maps, target, lo, hi, value_tol=PULLBACK_VALUE_TOL):
    """Solve F(t) = target on [lo, hi], F the composition of `maps`.

    F must be strictly monotone on the bracket with the target between the
    endpoint values.  Bisection runs until the residual drops below
    `value_tol` or the bracket cannot be split in floats; returns the point
    with the smallest observed residual.  A one-float bracket (lo == hi)
    returns lo without composing F, the point bisection would return.  A
    depth-n branch domain shrinks like e^(-n lambda), so it is one float
    after about 53 ln 2 / lambda steps (53 for the logistic map).
    """
    if not maps:
        return float(target)
    if lo == hi:
        return lo
    fs = [m.evaluator for m in maps]
    flo = _compose_evaluators(fs, lo)
    fhi = _compose_evaluators(fs, hi)
    increasing = fhi >= flo
    best_t, best_r = lo, abs(flo - target)
    if abs(fhi - target) < best_r:
        best_t, best_r = hi, abs(fhi - target)
    for _ in range(200):
        if best_r <= value_tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = _compose_evaluators(fs, mid)
        r = abs(fm - target)
        if r < best_r:
            best_t, best_r = mid, r
        if (fm < target) == increasing:
            lo = mid
        else:
            hi = mid
    return best_t


def bisect_preimages(maps, targets, los, his, value_tol=PULLBACK_VALUE_TOL,
                     depths=None):
    """bisect_preimage lane by lane over broadcast 1-d arrays.

    Each lane follows the scalar rules exactly (the 200-step cap, the
    residual and float-exhaustion stops, the strict-< best-residual choice
    and the bracket update), so lane i equals ``bisect_preimage(
    maps[:depths[i]], targets[i], los[i], his[i])`` bit for bit (depths
    default to len(maps)).  A depth-0 lane returns its target, a one-float
    lane (lo == hi) its lo.  Fewer than SCALAR_LANES other lanes go through
    bisect_preimage one by one; more run in depth order, LANE_BATCH at a
    time, and a step applies map s once, to the lanes deeper than s.
    """
    targets, los, his, depths = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (targets, los, his)),
        len(maps) if depths is None else depths))
    out = np.where(depths > 0, los, targets)
    open_lanes = np.flatnonzero((los != his) & (depths > 0))
    if open_lanes.size < SCALAR_LANES:
        for i, t, lo, hi, d in zip(open_lanes.tolist(),
                                   *(v[open_lanes].tolist()
                                     for v in (targets, los, his, depths))):
            out[i] = bisect_preimage(maps[:d], t, lo, hi, value_tol)
        return out
    open_lanes = open_lanes[np.argsort(depths[open_lanes], kind="stable")]
    for s in range(0, open_lanes.size, LANE_BATCH):
        part = open_lanes[s:s + LANE_BATCH]
        _bisect_lanes(maps, targets[part], los[part], his[part],
                      depths[part], value_tol, out, part)
    return out


def _bisect_lanes(maps, target, lo, hi, depth, value_tol, out, lane):
    """bisect_preimage of every lane, written to out[lane].  Lanes come in
    ascending depth and keep that order as they are dropped."""
    flo, fhi = _compose_ascending(maps, np.array((lo, hi)), depth)
    increasing = fhi >= flo
    r_lo, r_hi = np.abs(flo - target), np.abs(fhi - target)
    take = r_hi < r_lo
    t, r_best = np.where(take, hi, lo), np.where(take, r_hi, r_lo)
    del flo, fhi, r_lo, r_hi, take     # the loop holds only its own state
    # a lane that stops (residual or float exhaustion) writes out and drops;
    # as in the scalar rule, only r_best <= value_tol stops by residual, so
    # a NaN residual or tolerance goes on (bool a > b is a and not b)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        go = ((lo < mid) & (mid < hi)) > (r_best <= value_tol)
        if not go.all():
            out[lane] = t
            keep = np.flatnonzero(go)
            if not keep.size:
                return
            # three arrays at a time, so the state is never held twice
            lane, lo, hi = (v.take(keep) for v in (lane, lo, hi))
            mid, target, depth = (v.take(keep) for v in (mid, target, depth))
            t, r_best, increasing = (v.take(keep)
                                     for v in (t, r_best, increasing))
        fm = _compose_ascending(maps, mid, depth)
        up = (fm < target) == increasing
        r = np.abs(np.subtract(fm, target, out=fm), out=fm)   # fm is spent
        better = r < r_best
        t = np.where(better, mid, t)
        r_best = np.where(better, r, r_best)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    out[lane] = t


@dataclass(frozen=True)
class EndpointCut:
    """Certificate for a branch endpoint: f^level(endpoint) = critical."""

    level: int
    critical: float


@dataclass(frozen=True)
class MonotoneBranch:
    x: float
    n: int
    t_lo: float
    t_hi: float
    img_lo: float
    img_hi: float
    orientation: int
    r_history: tuple
    lo_cut: EndpointCut = None    # None: endpoint sits on the domain boundary
    hi_cut: EndpointCut = None

    @property
    def r_n(self):
        return self.r_history[-1] if self.r_history else None


def track_branch(seq, x, n):
    """Depth-n maximal monotone branch around x for the map sequence.

    Raises HitCritical(j) when the orbit of x lands on a critical point of
    f_j within HIT_TOL.
    """
    dom = seq.domain
    x = float(x)
    if not dom.lo < x < dom.hi:
        raise ValueError("anchor must be interior to the domain")
    t_lo, t_hi = dom.lo, dom.hi
    a, b = dom.lo, dom.hi          # image of the current branch
    y = x
    lo_to_lo = True                # does t_lo map to a (vs b)?
    orientation = 1
    r_hist = []
    lo_cut = hi_cut = None
    maps = []
    for j in range(n):
        m = seq.map_at(j)
        # one pass: the HitCritical test and the nearest cut on each side
        cut_lo = cut_hi = None
        for c in m.critical_points:
            if abs(y - c) <= HIT_TOL:
                raise HitCritical(j)
            if a < c < y and (cut_lo is None or c > cut_lo):
                cut_lo = c
            if y < c < b and (cut_hi is None or c < cut_hi):
                cut_hi = c
        for cut, below in ((cut_lo, True), (cut_hi, False)):
            if cut is None:
                continue
            # a cut below y moves the endpoint that maps to a, one above y
            # the endpoint that maps to b; lo_to_lo says which is t_lo
            if below == lo_to_lo:
                t_lo = bisect_preimage(maps, cut, t_lo, x)
                lo_cut = EndpointCut(j, cut)
            else:
                t_hi = bisect_preimage(maps, cut, x, t_hi)
                hi_cut = EndpointCut(j, cut)
        a = a if cut_lo is None else cut_lo
        b = b if cut_hi is None else cut_hi
        fa = float(m.evaluator(a))
        fb = float(m.evaluator(b))
        y = float(m.evaluator(y))
        if fa <= fb:
            a, b = fa, fb
        else:
            a, b = fb, fa
            lo_to_lo = not lo_to_lo
            orientation = -orientation
        maps.append(m)
        r_hist.append(min(y - a, b - y))
    return MonotoneBranch(x, n, t_lo, t_hi, a, b, orientation,
                          tuple(r_hist), lo_cut, hi_cut)


def image_step(f, critical_points, a, b, y):
    """One step of branch images [a, b] around orbit points y, lane by lane.

    Returns (hit, lo, hi, f(lo), f(hi), f(y)): `hit` marks the lanes with y
    within HIT_TOL of a critical point, and [lo, hi] is [a, b] cut at the
    nearest critical point strictly inside on each side of y, the rule of
    track_branch.  The images are left unordered; a hit lane is still cut
    and mapped, and its caller drops or masks it.  `f` is called on lo, hi
    and y separately, each of y's shape, so no temporary is larger than a
    lane array.
    """
    hit = np.zeros(np.shape(y), dtype=bool)
    lo, hi = a, b
    for c in critical_points:
        hit |= np.abs(y - c) <= HIT_TOL
        lo = _select((lo < c) & (c < y), c, lo)
        hi = _select((y < c) & (c < hi), c, hi)
    fa, fb, fy = (np.asarray(f(v), dtype=float) for v in (lo, hi, y))
    return hit, lo, hi, fa, fb, fy


def _select(mask, a, b):
    """np.where(mask, a, b) for float64 values, bit for bit (NaN payloads
    and signed zeros included), as b ^ ((a ^ b) & -mask) on their int64
    bits.  np.where branches per element, so on an unpredictable mask of
    10^4 lanes it costs about twice these four branch-free calls; its one
    call stays cheaper on narrow or predictable masks, as in
    `_bisect_lanes`."""
    m = np.subtract(0, mask, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64).view(np.int64)
    b = np.asarray(b, dtype=np.float64).view(np.int64)
    return (b ^ ((a ^ b) & m)).view(np.float64)


def symbol_sequence(branch: MonotoneBranch, delta):
    """Threshold the branch r-history: 1 where r_i >= delta, else 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return tuple(1 if r >= delta else 0 for r in branch.r_history)


# ---------------------------------------------------------------------------
# monotonicity partition
# ---------------------------------------------------------------------------

_Cell = namedtuple("_Cell", "lo hi img_lo img_hi lo_to_lo branch_imgs")


@dataclass(frozen=True)
class BranchPartition:
    """All depth-n monotone cells of a map sequence.

    `levels[i]` holds the sorted cut points of the depth-i partition
    (including the domain boundary); `branch_images[k][i-1]` is the image
    f^i(T_i) of the depth-i ancestor of final cell k.
    """

    depth: int
    cells: tuple               # (lo, hi) per cell, sorted
    levels: tuple              # per level 0..n: sorted endpoint tuple
    branch_images: tuple       # per cell: tuple over i=1..n of (A_i, B_i)


def monotonicity_partition(seq, n, cap=10**5):
    """Refine the domain into depth-n monotone cells by critical pullback."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    dom = seq.domain
    levels = [(dom.lo, dom.hi)]
    for _, cells in zip(range(n), _partition_levels(seq, cap)):
        levels.append(tuple(sorted({c.lo for c in cells} | {dom.hi})))
    return BranchPartition(
        depth=n,
        cells=tuple((c.lo, c.hi) for c in cells),
        levels=tuple(levels),
        branch_images=tuple(tuple(c.branch_imgs) for c in cells),
    )


def _partition_levels(seq, cap):
    """Yield the depth-1, depth-2, ... monotone cells, one level a step.

    Level j + 1 refines level j, so a caller that walks the depths builds
    each level once; CapExceeded when a level has more than `cap` cells.
    """
    dom = seq.domain
    cells = [_Cell(dom.lo, dom.hi, dom.lo, dom.hi, True, [])]
    maps = []
    for j in itertools.count():
        m = seq.map_at(j)
        inside = [[c for c in m.critical_points
                   if cell.img_lo < c < cell.img_hi] for cell in cells]
        lanes = [(c, cell.lo, cell.hi)
                 for cell, cs in zip(cells, inside) for c in cs]
        ts = iter(bisect_preimages(maps, *zip(*lanes)).tolist()
                  if lanes else ())
        pieces = []                # (parent, lo, hi, img_lo, img_hi)
        for cell, cs in zip(cells, inside):
            if not cs:
                pieces.append((cell, cell.lo, cell.hi, cell.img_lo,
                               cell.img_hi))
                continue
            cut_ts = [next(ts) for _ in cs]
            img_knots = [cell.img_lo, *cs, cell.img_hi]
            if cell.lo_to_lo:
                d_knots = [cell.lo, *cut_ts, cell.hi]
            else:
                d_knots = [cell.lo, *cut_ts[::-1], cell.hi]
                img_knots = img_knots[::-1]
            for i in range(len(d_knots) - 1):
                ia, ib = img_knots[i], img_knots[i + 1]
                pieces.append((cell, d_knots[i], d_knots[i + 1],
                               min(ia, ib), max(ia, ib)))
        # image endpoints of every piece in one evaluator call
        ends = compose_lanes([m], [p[k] for k in (3, 4) for p in pieces])
        fas, fbs = ends[:len(pieces)].tolist(), ends[len(pieces):].tolist()
        new_cells = []
        for (cell, plo, phi, _, _), fa, fb in zip(pieces, fas, fbs):
            flip = fa > fb
            nlo, nhi = (fb, fa) if flip else (fa, fb)
            new_cells.append(_Cell(plo, phi, nlo, nhi, cell.lo_to_lo != flip,
                                   cell.branch_imgs + [(nlo, nhi)]))
        if len(new_cells) > cap:
            raise CapExceeded(f"{len(new_cells)} cells exceed cap {cap}")
        cells = new_cells
        maps.append(m)
        yield cells


# ---------------------------------------------------------------------------
# census of r-threshold words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusRecord:
    """Connected components of every realized r-threshold word at depth n."""

    depth: int
    delta: float
    components: dict           # word tuple -> list of (lo, hi)

    def words(self):
        return sorted(self.components)

    def count(self, word):
        return len(self.components.get(tuple(word), ()))

    def measure(self, word):
        return sum(hi - lo for lo, hi in self.components.get(tuple(word), ()))

    def total_measure(self):
        return sum(self.measure(w) for w in self.components)


def component_census(seq, n, delta, cap=10**5):
    """Classify depth-n cells by their r-threshold word.

    Within each monotone cell every r_i is piecewise monotone with a single
    breakpoint, so the sign pattern of r_i - delta changes only where the
    i-th image crosses A_i + delta or B_i - delta; those crossings are
    solved by monotone bisection and the word is evaluated on midpoints.
    Points within CENSUS_GUARD of the threshold count as >= it.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    part = monotonicity_partition(seq, n, cap)
    maps = [seq.map_at(j) for j in range(n)]
    ncell = len(part.cells)
    clo, chi = np.array(part.cells).T
    imgs = np.array(part.branch_images).reshape(ncell, n, 2)
    A, B = imgs[:, :, 0], imgs[:, :, 1]
    # crossings of every depth i and cell: F_i of both cell endpoints, then
    # one pullback of every target strictly inside [F_i(lo), F_i(hi)]
    lanes = []                     # (cells, targets, depths) per i and side
    ends = np.concatenate([clo, chi])
    for i in range(1, n + 1):
        ends = compose_lanes(maps[i - 1:i], ends)
        flo, fhi = min_max(ends[:ncell], ends[ncell:])
        Ai, Bi = A[:, i - 1], B[:, i - 1]
        wide = ~(Bi - Ai < 2 * delta)      # else r_i < delta on the cell
        for target in (Ai + delta, Bi - delta):
            k = np.flatnonzero(wide & (flo < target) & (target < fhi))
            lanes.append((k, target[k], np.full(k.size, i)))
    idx, targets, depths = (np.concatenate(v) for v in zip(*lanes))
    ts = bisect_preimages(maps, targets, clo[idx], chi[idx], depths=depths)
    cuts = [[] for _ in range(ncell)]
    for k, t in zip(idx.tolist(), ts.tolist()):
        cuts[k].append(t)
    knots = []
    for (c_lo, c_hi), c_cuts in zip(part.cells, cuts):
        ks = [c_lo]
        for t in sorted(c_cuts):
            if t - ks[-1] > CENSUS_GUARD and c_hi - t > CENSUS_GUARD:
                ks.append(t)
        ks.append(c_hi)
        knots.append(ks)
    # the word of every knot interval, evaluated on its midpoint
    owner = np.array([k for k, ks in enumerate(knots)
                      for _ in range(len(ks) - 1)], dtype=int)
    z = np.array([0.5 * (lo + hi) for ks in knots
                  for lo, hi in zip(ks, ks[1:])])
    bits = np.empty((z.size, n), dtype=int)
    for i in range(1, n + 1):
        z = compose_lanes(maps[i - 1:i], z)
        r = min_max(z - A[owner, i - 1], B[owner, i - 1] - z)[0]
        bits[:, i - 1] = r >= delta - CENSUS_GUARD
    words = iter(map(tuple, bits.tolist()))
    components = {}
    for ks in knots:
        prev_word = None
        for klo, khi in zip(ks, ks[1:]):
            w = next(words)
            if w == prev_word:
                # crossing did not flip the word (threshold tangency);
                # merge with the previous component
                lo0, _ = components[w][-1]
                components[w][-1] = (lo0, khi)
            else:
                components.setdefault(w, []).append((klo, khi))
            prev_word = w
    return CensusRecord(n, delta,
                        {w: tuple(v) for w, v in components.items()})


def interval_images(seq, lo, hi, depth, extra):
    """Forward images of [lo, hi] for depth < m <= depth + extra.

    Steps the interval while every image stays clear of the critical set of
    the map applied at that level (contact within CENSUS_GUARD of an image
    endpoint does not count, matching the pullback exactness of cut
    points); returns the list of (m, img_lo, img_hi) computed and the
    number of clean extra steps.
    """
    a, b = float(lo), float(hi)
    out = []
    for m in range(depth + extra):
        mp = seq.map_at(m)
        if any(a + CENSUS_GUARD < c < b - CENSUS_GUARD
               for c in mp.critical_points):
            if m < depth:
                raise ValueError("interval is not inside a monotone cell")
            break
        fa, fb = float(mp.evaluator(a)), float(mp.evaluator(b))
        a, b = min(fa, fb), max(fa, fb)
        if m >= depth:
            out.append((m + 1, a, b))
    return out, len(out)
