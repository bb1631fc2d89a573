"""Averaged-pushforward measures and empirical ergodic components.

The basic estimator iterates a cloud of uniformly drawn points and deposits
the first n orbit points of each into a histogram, approximating the
average of the first n pushforwards of normalized Lebesgue measure.
Diagnostics quantify invariance (one-step transfer defect), distance to an
oracle density, and the number of distinct orbit-average histograms
(empirical ergodic components).
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .maps import SkewProduct, rows_per_block, wrap
from .rng import make_generator, rng_metadata


@dataclass(frozen=True)
class BinGrid1D:
    """Bins 0..bins-1 of [lo, hi) cut into equal bins; also one axis of a
    BinGrid2D.

    A point's bin is (x - lo) / (hi - lo) * bins, clipped on the float to
    [0, bins - 1] (in place for arrays) and then truncated to int, so that
    points out of range, +-1e300 too, land in the end bins.  When lo is 0.0
    and the width is a normal power of two with bins / width finite, x - lo
    is x bit for bit (-0.0 too) and dividing by the width is exact, so one
    multiply by that `scale` gives the same bins.  Every other grid keeps
    the subtract and the divide (`scale` is None): a multiply by a rounded
    reciprocal would move points across bin edges.
    """

    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        lo, hi, bins = self.lo, self.hi, self.bins
        if not isinstance(bins, numbers.Integral) or bins < 1:
            raise ValueError(f"need an integral bin count >= 1, got {bins!r}")
        if bins > sys.float_info.max:     # bins / width would overflow
            raise ValueError(f"need a bin count within the float range, got "
                             f"one of {int(bins).bit_length()} bits")
        try:
            width = hi - lo
            finite = (math.isfinite(lo) and math.isfinite(hi)
                      and math.isfinite(width))
        except OverflowError:       # int bounds past the float range
            finite = False
        if not (finite and lo < hi):
            raise ValueError(f"need finite bounds lo < hi with a finite "
                             f"width, got {lo!r} and {hi!r}")
        scale = bins / width
        exact = (lo == 0.0 and math.frexp(width)[0] == 0.5
                 and width >= sys.float_info.min and math.isfinite(scale))
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "scale", scale if exact else None)

    @property
    def size(self):
        return self.bins

    @property
    def edges(self):
        return np.linspace(self.lo, self.hi, self.bins + 1)

    def index(self, x):
        """Bin of each finite point of x (a float or an array), points out
        of range clamped to the end bins."""
        if self.scale is None:
            scaled = np.subtract(x, self.lo, dtype=float)
            scaled /= self._width
            scaled *= self.bins
        else:
            scaled = np.multiply(x, self.scale, dtype=float)
        return scaled.clip(0.0, self.bins - 1.0,
                           out=scaled if scaled.ndim else None).astype(int)

    def describe(self):
        return {"kind": "1d", "lo": self.lo, "hi": self.hi, "bins": self.bins}


@dataclass(frozen=True)
class BinGrid2D:
    """Row-major bins over the circle (base) times a fiber interval."""

    base_bins: int
    fiber_lo: float
    fiber_hi: float
    fiber_bins: int

    def __post_init__(self):
        object.__setattr__(self, "_theta", BinGrid1D(0.0, 1.0, self.base_bins))
        object.__setattr__(self, "_fiber", BinGrid1D(
            self.fiber_lo, self.fiber_hi, self.fiber_bins))

    @property
    def size(self):
        return self.base_bins * self.fiber_bins

    def index(self, state):
        """Row-major bin of each finite point (theta, x), floats or arrays:
        theta taken mod 1, x out of range clamped to the end fiber bins."""
        theta, x = state
        idx = self._theta.index(wrap(np.asarray(theta, dtype=float)))
        idx *= self.fiber_bins
        idx += self._fiber.index(x)
        return idx

    def describe(self):
        return {"kind": "2d", "base_bins": self.base_bins,
                "fiber_lo": self.fiber_lo, "fiber_hi": self.fiber_hi,
                "fiber_bins": self.fiber_bins,
                "order": "row-major (base outer, fiber inner)"}


def resolve_grid(system, grid=None):
    """Turn an int bin count into the natural grid for the system.

    The system is an IntervalMap (bins over its domain; 256 by default) or
    a SkewProduct (side x side bins over theta and the fiber domain, so
    the count must be a perfect square; 128 x 128 by default).
    """
    if isinstance(grid, (BinGrid1D, BinGrid2D)):
        return grid
    if isinstance(system, SkewProduct):
        side = 128 if grid is None else math.isqrt(int(grid))
        if grid is not None and side * side != grid:
            raise ValueError(f"a skew-product needs a square bin count "
                             f"(side x side), got {grid}")
        dom = system.fiber_domain
        return BinGrid2D(side, dom.lo, dom.hi, side)
    bins = 256 if grid is None else int(grid)
    return BinGrid1D(system.domain.lo, system.domain.hi, bins)


@dataclass(frozen=True)
class EmpiricalMeasure:
    grid: object
    weights: np.ndarray
    metadata: dict

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", w)


def _index_blocks(system, points, seed, grid, n, first=0):
    """Bin indices of iterates first..n-1 of a cloud of `points` points
    drawn by `system.sample` from `seed`.

    The cloud makes exactly n - 1 steps, in the `system.orbit` blocks of
    rows_per_block(points) rows; blocks that end before `first` are not
    binned, and the block that holds iterate `first` is binned from it on.
    Each binned block is an int array of shape (rows, points) holding
    consecutive iterates in order, one `grid.index` call each.
    """
    rows = rows_per_block(points)
    state = system.sample(make_generator(seed), points)
    for j, block in zip(range(0, n, rows), system.orbit(state, n)):
        if j + rows > first:
            yield grid.index(block)[max(0, first - j):]


def orbit_bin_counts(system, samples, n, grid=None, seed=0):
    """Bin counts of iterates 0..n of a uniform cloud; shape (n+1, bins).

    The first n rows accumulate to the averaged-pushforward estimate; row n
    exists so that one-step transfer identities can be checked on matched
    orbit data.
    """
    grid = resolve_grid(system, grid)
    counts = np.zeros((n + 1, grid.size), dtype=np.int64)
    j = 0
    for idx in _index_blocks(system, samples, seed, grid, n + 1):
        for step_idx in idx:
            counts[j] = np.bincount(step_idx, minlength=grid.size)
            j += 1
    return counts, grid


def empirical_measure(system, samples, n, grid=None, seed=0):
    """Average of the first n pushforwards of a uniform sample cloud.

    Deposits iterates 0..n-1 of each of `samples` points with weight
    1/(samples*n); deterministic for a fixed seed.  Orbit points that land
    exactly on critical points simply continue (the image is defined).
    One bincount per `_index_blocks` block adds to a running tally, so
    memory stays at one block of the cloud, whatever n is.
    """
    if samples < 1 or n < 1:
        raise ValueError("need samples >= 1 and n >= 1")
    grid = resolve_grid(system, grid)
    tally = np.zeros(grid.size, dtype=np.int64)
    for idx in _index_blocks(system, samples, seed, grid, n):
        tally += np.bincount(idx.ravel(), minlength=grid.size)
    weights = tally / float(samples * n)
    meta = {"samples": int(samples), "iterations": int(n),
            "system": system.label, **rng_metadata(seed)}
    return EmpiricalMeasure(grid, weights, meta)


def invariance_defect(measure: EmpiricalMeasure, system, transfer_samples,
                      seed):
    """L1 distance between the measure and its one-step pushforward.

    The pushforward is estimated by sampling each bin uniformly with a
    point budget proportional to its weight (at least one point per loaded
    bin) and applying the map once.
    """
    grid = measure.grid
    rng = make_generator(seed)
    push = np.zeros(grid.size)
    w = measure.weights
    for b in np.flatnonzero(w > 0):
        n_b = max(1, int(round(w[b] * transfer_samples)))
        if isinstance(grid, BinGrid1D):
            width = (grid.hi - grid.lo) / grid.bins
            lo = grid.lo + b * width
            state = rng.uniform(lo, lo + width, n_b)
        else:
            ti, xi = divmod(int(b), grid.fiber_bins)
            bw = 1.0 / grid.base_bins
            fw = (grid.fiber_hi - grid.fiber_lo) / grid.fiber_bins
            state = (rng.uniform(ti * bw, (ti + 1) * bw, n_b),
                     rng.uniform(grid.fiber_lo + xi * fw,
                                 grid.fiber_lo + (xi + 1) * fw, n_b))
        idx = grid.index(system.step(state))
        push += np.bincount(idx, minlength=grid.size) * (w[b] / n_b)
    return float(np.abs(push - w).sum())


def density_compare(measure: EmpiricalMeasure, oracle):
    """L1 distance between the measure and an oracle density's bin masses.

    1-d oracles are integrated per bin with adaptive quadrature; 2-d
    oracles (callables of (theta, x)) with a refined midpoint rule.
    """
    grid = measure.grid
    if isinstance(grid, BinGrid1D):
        # imported here: scipy is this function's alone, and loading it
        # costs the CLI most of its start-up time and memory
        from scipy import integrate
        e = grid.edges
        masses = np.array([
            integrate.quad(oracle, e[i], e[i + 1], limit=100)[0]
            for i in range(grid.bins)])
    else:
        sub = 4
        masses = np.empty(grid.size)
        bw = 1.0 / grid.base_bins
        fw = (grid.fiber_hi - grid.fiber_lo) / grid.fiber_bins
        for b in range(grid.size):
            ti, xi = divmod(b, grid.fiber_bins)
            ts = (ti + (np.arange(sub) + 0.5) / sub) * bw
            xs = grid.fiber_lo + (xi + (np.arange(sub) + 0.5) / sub) * fw
            T, X = np.meshgrid(ts, xs, indexing="ij")
            masses[b] = float(np.mean(oracle(T, X))) * bw * fw
    return float(np.abs(measure.weights - masses).sum())


# ---------------------------------------------------------------------------
# empirical ergodic components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentReport:
    count: int
    assignment: tuple
    link_threshold: float
    sensitivity: dict         # threshold -> cluster count
    metadata: dict


def _probe_histograms(system, probes, n, grid, seed, burn):
    """Visit frequencies of iterates burn..n-1 of each probe; one row each."""
    tally = np.zeros(probes * grid.size, dtype=np.int64)
    offsets = np.arange(probes) * grid.size
    for idx in _index_blocks(system, probes, seed, grid, n, burn):
        idx += offsets
        tally += np.bincount(idx.ravel(), minlength=tally.size)
    hists = tally.reshape(probes, grid.size).astype(float)
    hists /= hists.sum(axis=1, keepdims=True)
    return hists


def _l1_distances(hists):
    """Symmetric matrix of L1 distances between the rows of hists."""
    p = hists.shape[0]
    dist = np.zeros((p, p))
    for i in range(p):
        d = np.abs(hists[i + 1:] - hists[i]).sum(axis=1)
        dist[i, i + 1:] = d
        dist[i + 1:, i] = d
    return dist


def _cluster_count(dist, threshold):
    """Single-linkage clusters of the probes closer than threshold.

    Clusters are numbered in order of their first probe.
    """
    linked = dist < threshold
    label = np.full(dist.shape[0], -1)
    count = 0
    for i in range(dist.shape[0]):
        if label[i] >= 0:
            continue
        member = np.zeros(dist.shape[0], dtype=bool)
        member[i] = True
        frontier = member.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~member
            member |= frontier
        label[member] = count
        count += 1
    return count, tuple(label.tolist())


def ergodic_components(system, probes, n, grid, seed, link_threshold=0.3,
                       burn_frac=0.1):
    """Cluster per-orbit histograms to count empirical ergodic components.

    Each probe runs a single orbit of n steps, discards the first
    `burn_frac` fraction as burn-in, and histograms the rest; probes are
    merged by single linkage whenever their L1 distance is below the
    threshold.  The report also gives the cluster count at the thresholds
    0.1, 0.2, 0.3 and 0.5.
    """
    if probes < 10**2:
        raise ValueError("need at least 100 probes")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= burn_frac < 1.0:
        raise ValueError(f"burn_frac must lie in [0, 1), got {burn_frac!r}")
    grid = resolve_grid(system, grid)
    burn = int(n * burn_frac)
    hists = _probe_histograms(system, probes, n, grid, seed, burn)
    dist = _l1_distances(hists)
    count, assignment = _cluster_count(dist, link_threshold)
    sens = {t: _cluster_count(dist, t)[0] for t in (0.1, 0.2, 0.3, 0.5)}
    meta = {"probes": int(probes), "iterations": int(n),
            "burn_in": burn, "system": system.label,
            **rng_metadata(seed)}
    return ComponentReport(count, assignment, float(link_threshold), sens,
                           meta)
