"""Averaged-pushforward measures and empirical ergodic components.

The basic estimator iterates a cloud of uniformly drawn points and deposits
the first n orbit points of each into a histogram, approximating the
average of the first n pushforwards of normalized Lebesgue measure.
Diagnostics quantify invariance (one-step transfer defect), distance to an
oracle density, and the number of distinct orbit-average histograms
(empirical ergodic components).
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .expansion import _cloud_branch_stats
from .maps import SkewProduct
from .rng import make_generator, rng_metadata


def _clamp(idx, top):
    """Clip integer bin indices to 0..top, in place for arrays."""
    if np.ndim(idx) == 0:
        return min(max(idx, 0), top)
    np.maximum(idx, 0, out=idx)
    return np.minimum(idx, top, out=idx)


@dataclass(frozen=True)
class BinGrid1D:
    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if self.bins < 1 or not self.lo < self.hi:
            raise ValueError("need bins >= 1 and lo < hi")

    @property
    def size(self):
        return self.bins

    @property
    def edges(self):
        return np.linspace(self.lo, self.hi, self.bins + 1)

    def index(self, x):
        scaled = np.subtract(x, self.lo, dtype=float)
        scaled /= self.hi - self.lo
        scaled *= self.bins
        return _clamp(scaled.astype(int), self.bins - 1)

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
        if self.base_bins < 1 or self.fiber_bins < 1:
            raise ValueError("need at least one bin per axis")
        if not self.fiber_lo < self.fiber_hi:
            raise ValueError("need fiber_lo < fiber_hi")

    @property
    def size(self):
        return self.base_bins * self.fiber_bins

    def index(self, state):
        theta, x = state
        t = np.remainder(theta, 1.0, dtype=float)
        t *= self.base_bins
        idx = _clamp(t.astype(int), self.base_bins - 1)
        idx *= self.fiber_bins
        u = np.subtract(x, self.fiber_lo, dtype=float)
        u /= self.fiber_hi - self.fiber_lo
        u *= self.fiber_bins
        idx += _clamp(u.astype(int), self.fiber_bins - 1)
        return idx

    def describe(self):
        return {"kind": "2d", "base_bins": self.base_bins,
                "fiber_lo": self.fiber_lo, "fiber_hi": self.fiber_hi,
                "fiber_bins": self.fiber_bins,
                "order": "row-major (base outer, fiber inner)"}


def resolve_grid(system, grid=None):
    """Turn an int bin count into the natural grid for the system.

    None picks the defaults: 256 bins for interval maps, 128 x 128 for
    skew-products.  A skew-product's bin count must be a perfect square,
    side x side.
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

    def coarsen(self, factor):
        """Merge adjacent 1-d bins (bin count must divide evenly).

        When the metadata carries the deposit count, integer bin counts are
        recovered first so the result is bit-identical to building the
        measure at the coarse resolution from the same orbit data.
        """
        g = self.grid
        if not isinstance(g, BinGrid1D) or g.bins % factor:
            raise ValueError("coarsen needs a 1-d grid with divisible bins")
        coarse = BinGrid1D(g.lo, g.hi, g.bins // factor)
        total = (self.metadata.get("samples", 0)
                 * self.metadata.get("iterations", 0))
        if total > 0:
            counts = np.rint(self.weights * total)
            w = counts.reshape(-1, factor).sum(axis=1) / float(total)
        else:
            w = self.weights.reshape(-1, factor).sum(axis=1)
        return EmpiricalMeasure(coarse, w, dict(self.metadata))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            if isinstance(self.grid, BinGrid1D):
                wr.writerow(["bin_lo", "bin_hi", "weight"])
                e = self.grid.edges
                for i, w in enumerate(self.weights):
                    wr.writerow([repr(float(e[i])), repr(float(e[i + 1])),
                                 repr(float(w))])
            else:
                wr.writerow(["flat_index", "weight"])
                for i, w in enumerate(self.weights):
                    wr.writerow([i, repr(float(w))])

    def metadata_json(self):
        meta = dict(self.metadata)
        meta["grid"] = self.grid.describe()
        return json.dumps(meta, sort_keys=True)


# Iterates binned per grid.index call in the cloud loops: a block holds about
# this many points, so a small cloud bins many steps per call and a large one
# bins each step on its own, without stacking a copy.
_BLOCK_POINTS = 2**14


def _index_blocks(system, state, points, grid, n, first, last):
    """Bin indices of iterates first..last of a cloud, a block at a time.

    The cloud makes exactly n steps, one `system.step` call each, whichever
    iterates are binned.  Each block is an int array of shape (rows, points)
    holding consecutive iterates in order.
    """
    rows = max(1, _BLOCK_POINTS // points)
    block = []
    for j in range(n + 1):
        if first <= j <= last:
            block.append(state)
            if len(block) == rows or j == last:
                if len(block) == 1:
                    yield grid.index(state)[None]
                else:
                    yield grid.index(np.stack(block, axis=-2))
                block = []
        if j < n:
            state = system.step(state, j)


def orbit_bin_counts(system, samples, n, grid=None, seed=0):
    """Bin counts of iterates 0..n of a uniform cloud; shape (n+1, bins).

    The first n rows accumulate to the averaged-pushforward estimate; row n
    exists so that one-step transfer identities can be checked on matched
    orbit data.
    """
    grid = resolve_grid(system, grid)
    state = system.sample(make_generator(seed), samples)
    counts = np.zeros((n + 1, grid.size), dtype=np.int64)
    j = 0
    for idx in _index_blocks(system, state, samples, grid, n, 0, n):
        for step_idx in idx:
            counts[j] = np.bincount(step_idx, minlength=grid.size)
            j += 1
    return counts, grid


def empirical_measure(system, samples, n, grid=None, seed=0):
    """Average of the first n pushforwards of a uniform sample cloud.

    Deposits iterates 0..n-1 of each of `samples` points with weight
    1/(samples*n); deterministic for a fixed seed.  Orbit points that land
    exactly on critical points simply continue (the image is defined).
    """
    if samples < 1 or n < 1:
        raise ValueError("need samples >= 1 and n >= 1")
    counts, grid = orbit_bin_counts(system, samples, n, grid, seed)
    weights = counts[:n].sum(axis=0) / float(samples * n)
    label = getattr(system, "label", "")
    meta = {"samples": int(samples), "iterations": int(n),
            "system": label, **rng_metadata(seed)}
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
        idx = grid.index(system.step(state, 0))
        push += np.bincount(idx, minlength=grid.size) * (w[b] / n_b)
    return float(np.abs(push - w).sum())


def density_compare(measure: EmpiricalMeasure, oracle):
    """L1 distance between the measure and an oracle density's bin masses.

    1-d oracles are integrated per bin with adaptive quadrature; 2-d
    oracles (callables of (theta, x)) with a refined midpoint rule.
    """
    grid = measure.grid
    if isinstance(grid, BinGrid1D):
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

    def to_json(self):
        return json.dumps({
            "count": self.count,
            "assignment": list(self.assignment),
            "link_threshold": self.link_threshold,
            "sensitivity": {repr(k): v for k, v in self.sensitivity.items()},
            "metadata": self.metadata,
        }, sort_keys=True)


def _probe_histograms(system, probes, n, grid, seed, burn):
    """Visit frequencies of iterates burn..n-1 of each probe; one row each."""
    state = system.sample(make_generator(seed), probes)
    tally = np.zeros(probes * grid.size, dtype=np.int64)
    offsets = np.arange(probes) * grid.size
    for idx in _index_blocks(system, state, probes, grid, n, burn, n - 1):
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
                       burn_frac=0.1,
                       sensitivity=(0.1, 0.2, 0.3, 0.5)):
    """Cluster per-orbit histograms to count empirical ergodic components.

    Each probe runs a single orbit of n steps, discards the first
    `burn_frac` fraction as burn-in, and histograms the rest; probes are
    merged by single linkage whenever their L1 distance is below the
    threshold.
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
    sens = {}
    for t in sensitivity:
        sens[float(t)], _ = _cluster_count(dist, float(t))
    meta = {"probes": int(probes), "iterations": int(n),
            "burn_in": burn, "system": getattr(system, "label", ""),
            **rng_metadata(seed)}
    return ComponentReport(count, assignment, float(link_threshold), sens,
                           meta)


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
    be at least zeta times the fraction of such anchors.
    """
    cloud = system.sample(make_generator(seed), samples)
    r, _, _ = _cloud_branch_stats(system, cloud, n)
    mass = float((r >= delta_tilde).mean())
    anchors = float((r.sum(axis=0) >= 2.0 * delta_tilde * n).mean())
    zeta = delta_tilde / (system.sequence(0.0).domain.length - delta_tilde)
    return NuLikeMass(mass, anchors, zeta, mass >= zeta * anchors - 1e-12)
