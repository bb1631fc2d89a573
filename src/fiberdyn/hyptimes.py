"""Pliss index extraction, hyperbolic-like times, and nearly horizontal curves.

An iterate k is a hyperbolic-like time for a point when the depth-k branch
image leaves room delta on both sides of the orbit point (r_k >= delta).
The Pliss scan extracts indices before which all suffix averages of a
bounded sequence stay above a threshold; applied to branch sizes with
c2 = 2*delta and c1 = delta it certifies a positive density of
hyperbolic-like times.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .branches import MonotoneBranch, bisect_preimage, track_branch
from .errors import (CapExceeded, InvalidConstants, NotAGraph,
                     NotHyperbolicLike)
from .maps import SkewProduct, fiber_sequence, wrap


@dataclass(frozen=True)
class PlissQuery:
    """A bounded real sequence with threshold constants c1 < c2 <= A."""

    values: tuple
    c1: float
    c2: float
    A: float

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(float(v) for v in self.values))
        if not self.c1 < self.c2 <= self.A:
            raise InvalidConstants(
                f"need c1 < c2 <= A, got {self.c1}, {self.c2}, {self.A}")
        if self.values and max(self.values) > self.A:
            raise InvalidConstants("values exceed the stated upper bound A")


@dataclass(frozen=True)
class PlissResult:
    indices: tuple          # 1-based positions
    density: float
    guaranteed: bool        # sum(values) >= c2 * n held, so density >= zeta
    zeta: float


def pliss_times(q: PlissQuery):
    """All indices whose suffix sums stay above c1 per step, by linear scan.

    Index n_i qualifies when sum_{j=k+1}^{n_i} v_j >= c1 (n_i - k) for every
    0 <= k < n_i, i.e. when S_{n_i} - c1 n_i reaches a running maximum.
    When sum(values) >= c2 * n the classical counting argument guarantees
    density >= zeta = (c2 - c1) / (A - c1).
    """
    vals = q.values
    n = len(vals)
    zeta = (q.c2 - q.c1) / (q.A - q.c1)
    if n == 0:
        return PlissResult((), 0.0, False, zeta)
    indices = []
    excess = 0.0       # S_j - c1 * j
    running_max = 0.0  # over 0 <= k < j
    for j, v in enumerate(vals, start=1):
        if excess > running_max:
            running_max = excess
        excess += v - q.c1
        if excess >= running_max:
            indices.append(j)
    guaranteed = sum(vals) >= q.c2 * n
    return PlissResult(tuple(indices), len(indices) / n, guaranteed, zeta)


def hyperbolic_like_times(branch: MonotoneBranch, delta_tilde):
    """Indices i <= n with r_i >= delta_tilde, from the branch r-history."""
    if delta_tilde <= 0:
        raise ValueError("delta_tilde must be positive")
    return tuple(i for i, r in enumerate(branch.r_history, start=1)
                 if r >= delta_tilde)


# ---------------------------------------------------------------------------
# curves over the base circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveGraph:
    """Piecewise-linear graph of a map J -> I0 over a base arc.

    `theta` is strictly increasing; `slopes` holds transported tangent
    slopes when the curve came out of iteration, `origin` the parameter of
    each sample on the initial curve (for arc-length correspondence).
    """

    theta: np.ndarray
    x: np.ndarray
    slopes: np.ndarray = None
    origin: np.ndarray = None

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        xs = np.asarray(self.x, dtype=float)
        if th.ndim != 1 or th.size != xs.size or th.size < 2:
            raise ValueError("need matching 1-d sample arrays, >= 2 points")
        if not np.all(np.diff(th) > 0):
            raise ValueError("theta samples must be strictly increasing")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "x", xs)
        if self.origin is None:
            object.__setattr__(self, "origin", th.copy())

    @property
    def domain(self):
        return float(self.theta[0]), float(self.theta[-1])

    @property
    def max_slope(self):
        """Largest finite-difference slope between adjacent samples."""
        return float(np.max(np.abs(np.diff(self.x) / np.diff(self.theta))))

    def arc_length(self):
        return float(np.sum(np.hypot(np.diff(self.theta), np.diff(self.x))))

    @classmethod
    def horizontal(cls, height, lo=0.0, hi=1.0, samples=257):
        th = np.linspace(lo, hi, samples)
        return cls(th, np.full(samples, float(height)),
                   slopes=np.zeros(samples))

    @classmethod
    def from_function(cls, fn, dfn=None, lo=0.0, hi=1.0, samples=257):
        th = np.linspace(lo, hi, samples)
        slopes = np.asarray(dfn(th), float) if dfn else None
        return cls(th, np.asarray(fn(th), dtype=float), slopes=slopes)


def _refine_for_step(skew, piece, x_gap, theta_gap, max_depth=42):
    """Insert midpoints until the image of each segment is short enough.

    Works on the piecewise-linear representation; raises NotAGraph when a
    segment whose image is still wider than x_gap cannot be split further
    (float exhaustion or split depth beyond max_depth).
    """
    th = list(piece.theta)
    xs = list(piece.x)
    sl = list(piece.slopes) if piece.slopes is not None else None
    og = list(piece.origin)
    depth = [0] * (len(th) - 1)
    i = 0
    while i < len(th) - 1:
        ia = skew.fiber(th[i], xs[i])
        ib = skew.fiber(th[i + 1], xs[i + 1])
        wide_x = abs(ib - ia) > x_gap
        wide_t = (th[i + 1] - th[i]) * skew.base_degree > theta_gap
        if not (wide_x or wide_t):
            i += 1
            continue
        mid = 0.5 * (th[i] + th[i + 1])
        splittable = th[i] < mid < th[i + 1] and depth[i] < max_depth
        if not splittable:
            if wide_x:
                raise NotAGraph(
                    f"cannot refine segment at theta={th[i]!r} below float "
                    "resolution")
            i += 1
            continue
        frac = (mid - th[i]) / (th[i + 1] - th[i])
        th.insert(i + 1, mid)
        xs.insert(i + 1, xs[i] + frac * (xs[i + 1] - xs[i]))
        if sl is not None:
            sl.insert(i + 1, sl[i] + frac * (sl[i + 1] - sl[i]))
        og.insert(i + 1, og[i] + frac * (og[i + 1] - og[i]))
        depth[i:i + 1] = [depth[i] + 1, depth[i] + 1]
    return CurveGraph(np.array(th), np.array(xs),
                      np.array(sl) if sl is not None else None, np.array(og))


def propagate_curve(skew: SkewProduct, curve: CurveGraph, n,
                    x_gap=1e-3, theta_gap=1.0 / 64, cap=10**5):
    """Iterate a curve, splitting at base fundamental-domain wraps.

    Returns a list over iterates 1..n; each entry is a tuple of CurveGraph
    pieces (the base map multiplies the theta extent by about its degree,
    so the piece count grows geometrically; CapExceeded guards the budget).
    """
    pieces = [curve]
    out = []
    for _ in range(n):
        new_pieces = []
        for piece in pieces:
            piece = _refine_for_step(skew, piece, x_gap, theta_gap)
            th_old = piece.theta
            x_old = piece.x
            th_img, x_img = skew.step((th_old, x_old), 0)
            if piece.slopes is not None:
                s_img = (np.asarray(skew.fiber_dtheta(th_old, x_old), float)
                         + np.asarray(skew.fiber_dx(th_old, x_old), float)
                         * piece.slopes) \
                    / np.asarray(skew.base_derivative(th_old), float)
            else:
                s_img = None
            drops = np.flatnonzero(np.diff(th_img) <= 0)
            starts = [0, *(int(d) + 1 for d in drops)]
            ends = [*(int(d) + 1 for d in drops), th_img.size]
            for a, b in zip(starts, ends):
                if b - a < 2:
                    continue
                seg_th = th_img[a:b]
                if not np.all(np.diff(seg_th) > 0):
                    raise NotAGraph("image theta values collide inside a piece")
                new_pieces.append(CurveGraph(
                    seg_th, x_img[a:b],
                    s_img[a:b] if s_img is not None else None,
                    piece.origin[a:b]))
        if len(new_pieces) > cap:
            raise CapExceeded(f"{len(new_pieces)} curve pieces exceed {cap}")
        pieces = new_pieces
        out.append(tuple(pieces))
    return out


def slope_envelope(skew: SkewProduct, curve: CurveGraph, n):
    """Max transported tangent slope of each iterate of the curve.

    Transports the tangent slope s -> (d_theta f + d_x f * s) / d_theta g
    pointwise along every sample orbit; unlike piece splitting this scales
    to large n because wraps do not affect pointwise slopes.
    """
    th = curve.theta.copy()
    xs = curve.x.copy()
    if curve.slopes is not None:
        s = curve.slopes.copy()
    else:
        fd = np.diff(curve.x) / np.diff(curve.theta)
        s = np.concatenate([fd, fd[-1:]])
    env = np.empty(n)
    for m in range(n):
        s = (np.asarray(skew.fiber_dtheta(th, xs), float)
             + np.asarray(skew.fiber_dx(th, xs), float) * s) \
            / np.asarray(skew.base_derivative(th), float)
        th, xs = skew.step((th, xs), m)
        env[m] = np.abs(s).max()
    return env


def curve_growth_constants(skew: SkewProduct, alpha=0.0, grid=128):
    """(L, C1, C2) from the fitted domination constants.

    L bounds |d_theta f| / |d_theta g|; iterated slopes of alpha-curves
    stay below C1 = L*C*A + C*sigma*alpha with A = sum sigma^k, and curve
    arc length contracts backwards by C2 = sqrt(1 + C1^2) per inverse
    branch of the base.
    """
    th = np.linspace(0.0, 1.0, grid, endpoint=False)
    xs = skew.fiber_domain.grid(grid)
    T, X = np.meshgrid(th, xs, indexing="ij")
    L = float(np.max(np.abs(skew.fiber_dtheta(T, X))
                     / np.abs(skew.base_derivative(T))))
    sig, C = skew.domination.sigma_hat, skew.domination.C
    A = 1.0 / (1.0 - sig)
    C1 = L * C * A + C * sig * alpha
    C2 = math.sqrt(1.0 + C1 * C1)
    return L, C1, C2


# ---------------------------------------------------------------------------
# neighborhood probe at hyperbolic-like times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    theta: float
    x: float
    k: int
    delta_tilde: float
    grid: int
    injective: bool
    K_hat: float
    delta1_hat: float
    covers_ball: bool
    r_k: float
    rho: float
    rho_prime: float
    det_min: float
    det_max: float
    fiber_lo: float
    fiber_hi: float

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def _point_in_polygon(px, py, poly_x, poly_y):
    inside = False
    n = len(poly_x)
    j = n - 1
    for i in range(n):
        if (poly_y[i] > py) != (poly_y[j] > py):
            t = (py - poly_y[j]) / (poly_y[i] - poly_y[j])
            if px < poly_x[j] + t * (poly_x[i] - poly_x[j]):
                inside = not inside
        j = i
    return inside


def probe_neighborhood(skew: SkewProduct, z, k, delta_tilde, grid=32):
    """Empirical test of the rectangle sent diffeomorphically over a ball.

    Builds the candidate box (theta - eta1, theta + eta2) x I_k(z) whose
    base arc is the g^k-pullback of a rho'-arc and whose fiber side is the
    depth-k branch trimmed by delta_tilde/2 on both image sides, then
    samples a grid x grid mesh and reports mesh injectivity of the k-th
    iterate, the spread of |det D(iterate)|, and the radius of a ball
    around the image of z covered by the image quadrilateral.

    The base arc of the box has width 2 rho' / d^k; for an affine base the
    mesh is iterated in exact offset coordinates so the probe stays
    meaningful when that width falls below float spacing.
    """
    if not skew.base_affine:
        raise NotImplementedError("probe requires an affine base map")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if delta_tilde <= 0:
        raise ValueError("delta_tilde must be positive")
    theta, x = float(z[0]) % 1.0, float(z[1])
    dom = skew.fiber_domain
    seq = fiber_sequence(skew, theta)
    if k > 0:
        branch = track_branch(seq, x, k)
        r_k = branch.r_n
        if r_k < delta_tilde:
            raise NotHyperbolicLike(
                f"r_{k} = {r_k:.6g} < delta_tilde = {delta_tilde:.6g}")
        fiber_maps = [seq.map_at(j) for j in range(k)]
        lo_img = branch.img_lo + 0.5 * delta_tilde
        hi_img = branch.img_hi - 0.5 * delta_tilde
        f_lo = bisect_preimage(fiber_maps, lo_img, branch.t_lo, branch.t_hi)
        f_hi = bisect_preimage(fiber_maps, hi_img, branch.t_lo, branch.t_hi)
        f_lo, f_hi = min(f_lo, f_hi), max(f_lo, f_hi)
        y_center = float(seq.compose(x, k))
    else:
        r_k = math.inf
        f_lo = dom.lo + 0.5 * delta_tilde
        f_hi = dom.hi - 0.5 * delta_tilde
        y_center = x
    if not f_lo < f_hi:
        raise NotHyperbolicLike("trimmed fiber interval is empty")

    _, C1, C2 = curve_growth_constants(skew)
    C = skew.domination.C
    D = 1.0  # affine base: zero distortion for g^k on univalent pullbacks
    rho = 0.99 * min((delta_tilde / 4.0) / (D * C * C2),
                     (delta_tilde / 4.0) / max(C1, 1e-12))
    rho_p = rho / C2

    d = float(skew.base_degree)
    offsets = np.linspace(-rho_p, rho_p, grid)          # image-side offsets
    theta_orbit = skew.base_orbit(theta, k)
    xs0 = np.linspace(f_lo, f_hi, grid)
    X = np.tile(xs0, (grid, 1))                         # X[j, i]
    logdet = np.zeros((grid, grid))
    for m in range(k):
        th_col = wrap(theta_orbit[m] + offsets * d ** (m - k))
        TH = np.tile(th_col[:, None], (1, grid))
        dfx = np.abs(np.asarray(skew.fiber_dx(TH, X), float))
        logdet += math.log(d) + np.log(np.maximum(dfx, 1e-300))
        X = np.asarray(skew.fiber(TH, X), float)

    th_img_cols = theta_orbit[k] + offsets             # local, unwrapped
    det_min = float(np.exp(logdet.min()))
    det_max = float(np.exp(logdet.max()))
    K_hat = math.inf if det_min == 0.0 else det_max / det_min

    # mesh injectivity: columns differ in theta by >= 2 rho_p/(grid-1), so
    # only same-column pairs can collide; flag non-adjacent x collisions
    injective = True
    for j in range(grid):
        col = X[j]
        order = np.argsort(col, kind="stable")
        for i1, i2 in zip(order, order[1:]):
            if abs(col[i1] - col[i2]) < 1e-9 and abs(int(i1) - int(i2)) > 1:
                injective = False
                break
        if not injective:
            break

    # boundary polygon of the image, in local coordinates around phi^k(z)
    bj = ([(j, 0) for j in range(grid)]
          + [(grid - 1, i) for i in range(1, grid)]
          + [(j, grid - 1) for j in range(grid - 2, -1, -1)]
          + [(0, i) for i in range(grid - 2, 0, -1)])
    poly_u = np.array([th_img_cols[j] - theta_orbit[k] for j, _ in bj])
    poly_v = np.array([X[j, i] - y_center for j, i in bj])
    # distance from the origin (image of z) to the closed boundary polyline
    au, av = poly_u, poly_v
    bu, bv = np.roll(poly_u, -1), np.roll(poly_v, -1)
    eu, ev = bu - au, bv - av
    seg2 = eu * eu + ev * ev
    t = np.clip(np.where(seg2 > 0, -(au * eu + av * ev) / np.where(seg2 > 0, seg2, 1.0), 0.0), 0.0, 1.0)
    delta1_hat = float(np.min(np.hypot(au + t * eu, av + t * ev)))
    covers = True
    for ang in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        px = 0.99 * delta1_hat * math.cos(ang)
        py = 0.99 * delta1_hat * math.sin(ang)
        if not _point_in_polygon(px, py, poly_u, poly_v):
            covers = False
            break

    return ProbeReport(theta, x, int(k), float(delta_tilde), int(grid),
                       injective, K_hat, delta1_hat, covers,
                       float(r_k) if r_k != math.inf else -1.0,
                       rho, rho_p, det_min, det_max,
                       float(f_lo), float(f_hi))
