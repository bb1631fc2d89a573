"""Interval maps, map sequences and skew-products.

The objects here are immutable value types: a smooth self-map of an
interval with derivatives and a sorted critical-point list, an ordered
sequence of such maps sharing one domain, and a skew-product over an
expanding circle map driving a family of fiber maps.  Construction runs
sampled sanity checks (domain invariance, critical-point consistency,
domination) so that downstream modules can assume a well-posed system.

Map families form a closed catalogue extended in source; experiment
configs refer to them by name via :func:`make_system`.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DerivativeVanishes, MissingDerivative

INVARIANCE_TOL = 1e-9
INVARIANCE_GRID = 2**12
CRITICAL_GRID = 2**14


def wrap(theta):
    """Reduce an angle to [0, 1) by subtracting the floor."""
    return theta - np.floor(theta)


@dataclass(frozen=True)
class IntervalDomain:
    """A nondegenerate finite interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("domain endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x, tol=0.0):
        return self.lo - tol <= x <= self.hi + tol

    def grid(self, n):
        return np.linspace(self.lo, self.hi, n)


def find_critical_points(derivative, domain, grid=CRITICAL_GRID, tol=1e-12):
    """Locate zeros of f' by sign-change bisection on a fine grid."""
    xs = domain.grid(grid)
    ds = np.asarray(derivative(xs), dtype=float)
    found = []
    sign = np.sign(ds)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        lo, hi = float(xs[i]), float(xs[i + 1])
        flo = float(ds[i])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = float(derivative(mid))
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    for i in np.flatnonzero(ds == 0.0):
        found.append(float(xs[i]))
    return tuple(sorted(set(found)))


@dataclass(frozen=True)
class IntervalMap:
    """A smooth self-map of an interval with derivatives up to order 3.

    `evaluator` and `derivative` must accept numpy arrays; `second` and
    `third` are optional.  `critical_points` is strictly increasing and
    each listed point has |f'| <= 1e-9.
    """

    domain: IntervalDomain
    evaluator: callable
    derivative: callable
    second: callable = None
    third: callable = None
    critical_points: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "critical_points",
                           tuple(float(c) for c in self.critical_points))
        self._check_invariance()
        self._check_critical_points()

    def _check_invariance(self):
        xs = self.domain.grid(INVARIANCE_GRID)
        ys = np.asarray(self.evaluator(xs), dtype=float)
        overshoot = max(self.domain.lo - ys.min(), ys.max() - self.domain.hi)
        if overshoot > INVARIANCE_TOL:
            raise ValueError(
                f"map {self.label!r} leaves its domain by {overshoot:.3e}")

    def _check_critical_points(self):
        cp = self.critical_points
        if any(c2 <= c1 for c1, c2 in zip(cp, cp[1:])):
            raise ValueError("critical points must be strictly increasing")
        for c in cp:
            if not self.domain.contains(c):
                raise ValueError(f"critical point {c} outside domain")
            if abs(float(self.derivative(c))) > 1e-9:
                raise ValueError(f"|f'({c})| > 1e-9; not a critical point")
        # f' keeps one sign strictly between consecutive critical points
        knots = [self.domain.lo, *cp, self.domain.hi]
        for a, b in zip(knots, knots[1:]):
            if b <= a:
                continue
            xs = np.linspace(a, b, 130)[1:-1]
            ds = np.asarray(self.derivative(xs), dtype=float)
            if ds.max() > 0 and ds.min() < 0:
                raise ValueError(
                    f"f' changes sign inside ({a}, {b}); missing critical point?")

    def sample(self, rng, k):
        """k points drawn uniformly from the domain."""
        return rng.uniform(self.domain.lo, self.domain.hi, k)

    def step(self, state, j):
        """The image of a cloud of points."""
        return np.asarray(self.evaluator(state), float)

    def sequence(self, theta):
        """The constant sequence every point sees."""
        return constant_sequence(self)


def schwarzian(m: IntervalMap, x):
    """Schwarzian derivative f'''/f' - 1.5 (f''/f')^2 at a scalar point."""
    if m.second is None or m.third is None:
        raise MissingDerivative(f"map {m.label!r} lacks f'' or f'''")
    d1 = float(m.derivative(x))
    if abs(d1) <= 1e-12:
        raise DerivativeVanishes(f"|f'({x})| <= 1e-12")
    d2 = float(m.second(x))
    d3 = float(m.third(x))
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


class MapSequence:
    """Ordered source of interval maps f_0, f_1, ... on one shared domain.

    `generator` maps an index k to an IntervalMap; produced maps are cached
    so the accessor is repeatable.  `max_critical_count` bounds the number
    of critical points of every member.
    """

    def __init__(self, generator, domain, max_critical_count, label="",
                 constant=False):
        self.generator = generator
        self.domain = domain
        self.max_critical_count = int(max_critical_count)
        self.label = label
        self.constant = bool(constant)
        self._cache = {}

    def map_at(self, k):
        key = 0 if self.constant else int(k)
        m = self._cache.get(key)
        if m is None:
            m = self.generator(key)
            if m.domain != self.domain:
                raise ValueError("sequence members must share one domain")
            if len(m.critical_points) > self.max_critical_count:
                raise ValueError(
                    f"map {key} has {len(m.critical_points)} critical points, "
                    f"cap is {self.max_critical_count}")
            self._cache[key] = m
        return m

    def compose(self, x, n, start=0):
        """Evaluate f_{start+n-1} o ... o f_start at x (scalar or array)."""
        for j in range(start, start + n):
            x = self.map_at(j).evaluator(x)
        return x

    def shifted(self, k):
        """The sequence j -> f_{k+j}."""
        if self.constant:
            return self
        return MapSequence(lambda j: self.map_at(k + j), self.domain,
                           self.max_critical_count,
                           label=f"{self.label}<<{k}")

    def sample(self, rng, k):
        """k points drawn uniformly from the shared domain."""
        return rng.uniform(self.domain.lo, self.domain.hi, k)

    def step(self, state, j):
        """The image of a cloud of points under f_j."""
        return np.asarray(self.map_at(j).evaluator(state), float)

    def sequence(self, theta):
        """The sequence itself: every point sees the same maps."""
        return self


def constant_sequence(m: IntervalMap, label=None):
    """The sequence f_k = m for all k."""
    return MapSequence(lambda k: m, m.domain, len(m.critical_points),
                       label=label or f"const[{m.label}]", constant=True)


def estimate_modulus(seq: MapSequence, zeta, k_probe=8, grid=512,
                     resolution=1024):
    """Largest tested separation below which f_k and Df_k move less than zeta.

    Scans the lattice eps = m * |I0| / resolution downward and returns the
    largest eps such that |f_k(x)-f_k(y)| < zeta and |Df_k(x)-Df_k(y)| < zeta
    for every probed k <= k_probe and every grid pair with |x - y| < eps;
    0.0 if even the smallest tested eps fails.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    dom = seq.domain
    xs = dom.grid(grid)
    h = float(xs[1] - xs[0])
    nshift = grid - 1
    worst = np.zeros(nshift + 1)   # worst[s]: max move over pairs at shift <= s
    for k in range(max(1, k_probe)):
        m = seq.map_at(k)
        for vals in (np.asarray(m.evaluator(xs), float),
                     np.asarray(m.derivative(xs), float)):
            running = 0.0
            for s in range(1, nshift + 1):
                running = max(running, float(np.abs(vals[s:] - vals[:-s]).max()))
                if running > worst[s]:
                    worst[s] = running
        if seq.constant:
            break
    length = dom.length
    for mstep in range(resolution, 0, -1):
        eps = mstep * length / resolution
        smax = min(nshift, max(0, math.ceil(eps / h) - 1))
        if worst[smax] < zeta:
            return eps
    return 0.0


# ---------------------------------------------------------------------------
# skew-products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domination:
    """Fitted constants for the fiber-vs-base derivative ratio bound."""

    sigma_hat: float
    C: float


@dataclass(frozen=True)
class PartialHyperbolicityReport:
    n_values: tuple
    max_ratio: tuple          # max over the grid of prod|d_x f| / |d_theta g^n|
    sigma_hat: float
    C: float
    decays: bool


@dataclass(frozen=True)
class SkewProduct:
    """(theta, x) -> (g(theta), f(theta, x)) with expanding base g.

    The base acts on the circle [0,1); iterates of g are computed by
    repeated application with a wrap to [0,1) after every step.  For
    d*theta mod 1 with an integer d this does not keep them accurate:
    each step shifts out log2(d) bits of the float's 53-bit mantissa, so
    an orbit reaches exactly 0.0 after about 53 / log2(d) steps and stays
    there (viana_skew().base_orbit(pi/10, 20) is 0.0 from step 13 on);
    ROADMAP item 4 plans exact digit-stream orbits.  `base_affine` marks
    bases of the exact form d*theta mod 1, for which pullbacks of tiny
    arcs admit exact offset arithmetic.
    """

    base_degree: int
    base: callable
    base_derivative: callable
    fiber: callable              # f(theta, x)
    fiber_dx: callable
    fiber_dtheta: callable
    fiber_domain: IntervalDomain
    fiber_dxx: callable = None
    fiber_dxxx: callable = None
    fiber_criticals: callable = None   # theta -> tuple of critical x values
    domination: Domination = None
    base_affine: bool = False
    label: str = ""

    def __post_init__(self):
        if self.base_degree < 2:
            raise ValueError("base degree must be >= 2")
        self._check_base_expansion()
        self._check_fiber_invariance()
        rep = verify_partial_hyperbolicity(self, n_max=12, grid=32)
        if not rep.decays:
            raise ValueError("no geometric domination on the test grid")
        if self.domination is None:
            object.__setattr__(self, "domination",
                               Domination(rep.sigma_hat, rep.C))
        else:
            dom = self.domination
            for n, r in zip(rep.n_values, rep.max_ratio):
                if r > dom.C * dom.sigma_hat ** n * (1.0 + 1e-9):
                    raise ValueError(
                        "supplied domination constants fail on the test grid")

    def _check_base_expansion(self):
        th = np.linspace(0.0, 1.0, 512, endpoint=False)
        dg = np.abs(np.asarray(self.base_derivative(th), float))
        if dg.min() <= 1.0:
            raise ValueError("base map is not uniformly expanding")

    def _check_fiber_invariance(self):
        th = np.linspace(0.0, 1.0, 64, endpoint=False)
        xs = self.fiber_domain.grid(256)
        T, X = np.meshgrid(th, xs, indexing="ij")
        ys = np.asarray(self.fiber(T, X), float)
        over = max(self.fiber_domain.lo - ys.min(),
                   ys.max() - self.fiber_domain.hi)
        if over > INVARIANCE_TOL:
            raise ValueError(f"fiber leaves its domain by {over:.3e}")

    def sample(self, rng, k):
        """k points (theta, x): all thetas first, then all fiber values."""
        dom = self.fiber_domain
        return rng.uniform(0.0, 1.0, k), rng.uniform(dom.lo, dom.hi, k)

    def step(self, state, j):
        """The image (g(theta), f(theta, x)) of a cloud of points."""
        theta, x = state
        return (wrap(np.asarray(self.base(theta), float)),
                np.asarray(self.fiber(theta, x), float))

    def sequence(self, theta):
        """The fiber maps along the base orbit of theta."""
        return fiber_sequence(self, theta)

    def base_orbit(self, theta, n):
        """theta, g(theta), ..., g^n(theta) with per-step wrapping."""
        out = np.empty(n + 1)
        t = float(theta) % 1.0
        out[0] = t
        for j in range(n):
            t = float(self.base(t)) % 1.0
            out[j + 1] = t
        return out

    def fiber_map(self, theta):
        """The interval map x -> f(theta, x) at a fixed base point."""
        th = float(theta) % 1.0
        d2 = (lambda x: self.fiber_dxx(th, x)) if self.fiber_dxx else None
        d3 = (lambda x: self.fiber_dxxx(th, x)) if self.fiber_dxxx else None
        if self.fiber_criticals is not None:
            cps = self.fiber_criticals(th)
        else:
            cps = find_critical_points(lambda x: self.fiber_dx(th, x),
                                       self.fiber_domain)
        return IntervalMap(self.fiber_domain,
                           evaluator=lambda x: self.fiber(th, x),
                           derivative=lambda x: self.fiber_dx(th, x),
                           second=d2, third=d3, critical_points=cps,
                           label=f"{self.label}@theta={th:.6f}")


def fiber_sequence(skew: SkewProduct, theta):
    """The map sequence k -> f(g^k(theta), .) along one base orbit."""
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    orbit = {0: theta}

    def generator(k):
        top = max(orbit)
        while top < k:
            orbit[top + 1] = float(skew.base(orbit[top])) % 1.0
            top += 1
        return skew.fiber_map(orbit[k])

    thetas = np.linspace(0.0, 1.0, 64, endpoint=False)
    if skew.fiber_criticals is not None:
        p = max(len(skew.fiber_criticals(t)) for t in thetas)
    else:
        p = max(len(find_critical_points(lambda x: skew.fiber_dx(t, x),
                                         skew.fiber_domain, grid=2**10))
                for t in thetas[::8])
    return MapSequence(generator, skew.fiber_domain, p,
                       label=f"fiber[{skew.label}]@theta={theta:.6f}")


def verify_partial_hyperbolicity(skew: SkewProduct, n_max=12, grid=32):
    """Check the domination ratio prod|d_x f| / |d_theta g^n| on a grid.

    Returns the per-n maxima together with fitted constants (C, sigma_hat)
    such that max_ratio(n) <= C * sigma_hat^n on the tested grid, and a
    flag for geometric decay.
    """
    if grid < 2 or n_max < 1:
        raise ValueError("need grid >= 2 and n_max >= 1")
    th = np.linspace(0.0, 1.0, grid, endpoint=False)
    xs = skew.fiber_domain.grid(grid)
    T, X = np.meshgrid(th, xs, indexing="ij")
    T = T.ravel().copy()
    X = X.ravel().copy()
    prod = np.ones_like(T)
    maxima = []
    for _ in range(n_max):
        prod = prod * np.abs(skew.fiber_dx(T, X)) / np.abs(skew.base_derivative(T))
        maxima.append(float(prod.max()))
        # fiber uses the pre-step theta; both updates read the old (T, X)
        T, X = wrap(skew.base(T)), skew.fiber(T, X)
    maxima = np.asarray(maxima)
    ns = np.arange(1, n_max + 1)
    if maxima.max() == 0.0:
        return PartialHyperbolicityReport(tuple(int(n) for n in ns),
                                          tuple(maxima), 0.0, 1.0, True)
    pos = maxima > 0
    slope, _ = np.polyfit(ns[pos], np.log(maxima[pos]), 1)
    sigma_hat = float(np.exp(slope))
    decays = sigma_hat < 1.0
    if decays:
        C = float(np.max(maxima[pos] / sigma_hat ** ns[pos]))
    else:
        C = float(maxima.max())
    return PartialHyperbolicityReport(tuple(int(n) for n in ns),
                                      tuple(float(v) for v in maxima),
                                      sigma_hat, C, decays)


# ---------------------------------------------------------------------------
# family catalogue
# ---------------------------------------------------------------------------

def logistic_map():
    """4x(1-x) on [0,1]; critical point 1/2, Lyapunov exponent log 2."""
    dom = IntervalDomain(0.0, 1.0)
    return IntervalMap(
        dom,
        evaluator=lambda x: 4.0 * x * (1.0 - x),
        derivative=lambda x: 4.0 - 8.0 * x,
        second=lambda x: -8.0 + 0.0 * x,
        third=lambda x: 0.0 * x,
        critical_points=(0.5,),
        label="logistic",
    )


def quadratic_map(a):
    """a - x^2 on its dynamical core [a - a^2, a]; valid for 1 < a <= 2."""
    if not 1.0 < a <= 2.0:
        raise ValueError("quadratic family needs 1 < a <= 2")
    dom = IntervalDomain(a - a * a, a)
    return IntervalMap(
        dom,
        evaluator=lambda x: a - x * x,
        derivative=lambda x: -2.0 * x,
        second=lambda x: -2.0 + 0.0 * x,
        third=lambda x: 0.0 * x,
        critical_points=(0.0,),
        label=f"quadratic[a={a!r}]",
    )


def affine_map(slope, intercept, domain=None):
    """slope*x + intercept; the domain (default [0,1]) must be invariant."""
    dom = domain or IntervalDomain(0.0, 1.0)
    if slope == 0.0:
        raise ValueError("affine family needs a nonzero slope")
    return IntervalMap(
        dom,
        evaluator=lambda x: slope * x + intercept,
        derivative=lambda x: slope + 0.0 * x,
        second=lambda x: 0.0 * x,
        third=lambda x: 0.0 * x,
        critical_points=(),
        label=f"affine[{slope!r},{intercept!r}]",
    )


def identity_map(domain=None):
    return affine_map(1.0, 0.0, domain)


def doubling_map():
    """2x mod 1 on [0,1]; piecewise smooth with derivative 2 a.e."""
    dom = IntervalDomain(0.0, 1.0)
    return IntervalMap(
        dom,
        evaluator=lambda x: (2.0 * x) % 1.0,
        derivative=lambda x: 2.0 + 0.0 * x,
        critical_points=(),
        label="doubling",
    )


def moebius_map(shift=2.0):
    """shift*x / (1 + (shift-1)x) on [0,1]; fractional linear, Sf = 0."""
    if shift <= 1.0:
        raise ValueError("moebius family needs shift > 1")
    c = shift - 1.0
    dom = IntervalDomain(0.0, 1.0)
    return IntervalMap(
        dom,
        evaluator=lambda x: shift * x / (1.0 + c * x),
        derivative=lambda x: shift / (1.0 + c * x) ** 2,
        second=lambda x: -2.0 * shift * c / (1.0 + c * x) ** 3,
        third=lambda x: 6.0 * shift * c * c / (1.0 + c * x) ** 4,
        critical_points=(),
        label=f"moebius[{shift!r}]",
    )


# Two-well map: [0, 0.45] and [0.55, 1] are invariant, each carrying a
# full-branch expanding quadratic, joined by a C^3 connector whose diagonal
# crossings are all repelling so the junction gap holds no attractor.
_WELL_LO = 0.45
_WELL_HI = 0.55
_GAP = _WELL_HI - _WELL_LO


def _twowell_connector_coeffs():
    d2 = _GAP ** 2 * 8.0 / _WELL_LO    # well second derivative rescaled to s
    A = np.zeros((8, 8))
    for k in range(8):
        A[0, k] = float(k == 0)
        A[1, k] = float(k == 1)
        A[2, k] = 2.0 * (k == 2)
        A[3, k] = 6.0 * (k == 3)
        A[4, k] = 1.0
        A[5, k] = k
        A[6, k] = k * (k - 1)
        A[7, k] = k * (k - 1) * (k - 2)
    b = np.array([_WELL_LO, 4.0 * _GAP, d2, 0.0,
                  _WELL_HI, 4.0 * _GAP, -d2, 0.0])
    hermite = np.linalg.solve(A, b)
    # bump (s(1-s))^4 (a + b s + c s^2) plunging the connector into the left
    # well; targets tuned so that every diagonal crossing is repelling
    targets = [(0.35, 0.20), (0.50, 0.17), (0.65, 0.28)]
    M = np.array([[(s * (1 - s)) ** 4 * s ** k for k in range(3)]
                  for s, _ in targets])
    rhs = np.array([t - P.polyval(s, hermite) for s, t in targets])
    abc = np.linalg.solve(M, rhs)
    bump = P.polymul(P.polypow(P.polymul([0.0, 1.0], [1.0, -1.0]), 4), abc)
    total = P.polyadd(hermite, bump)
    return tuple(P.polyder(total, m) if m else total for m in range(4))


# Connector coefficients per derivative order as Python floats, highest
# degree first, for Horner's rule in P.polyval's order.
_TW_CONNECTOR = tuple(tuple(float(c) for c in coeffs[::-1])
                      for coeffs in _twowell_connector_coeffs())


def twowell_map():
    """C^3 map of [0,1] with invariant wells [0, 0.45] and [0.55, 1]."""
    dom = IntervalDomain(0.0, 1.0)
    w = _WELL_LO

    def piecewise(x, left, order):
        x = np.asarray(x, dtype=float)
        s = np.minimum(np.maximum((x - _WELL_LO) / _GAP, 0.0), 1.0)
        top, *rest = _TW_CONNECTOR[order]
        y_mid = top * s
        for c in rest[:-1]:
            y_mid += c
            y_mid *= s
        y_mid += rest[-1]
        if order:
            y_mid /= _GAP ** order
        t_r = np.minimum(np.maximum(x, _WELL_HI), 1.0) - _WELL_HI
        if order == 0:
            y_r = _WELL_HI + 4.0 * t_r * (w - t_r) / w
        elif order == 1:
            y_r = 4.0 * (1.0 - 2.0 * t_r / w)
        elif order == 2:
            y_r = -8.0 / w + 0.0 * t_r
        else:
            y_r = 0.0 * t_r
        out = np.where(x < _WELL_LO, left(np.minimum(np.maximum(x, 0.0), w)),
                       np.where(x > _WELL_HI, y_r, y_mid))
        return out if out.ndim else float(out)

    ev = lambda x: piecewise(x, lambda t: w * (1.0 - 2.0 * t / w) ** 2, 0)
    d1 = lambda x: piecewise(x, lambda t: -4.0 * (1.0 - 2.0 * t / w), 1)
    d2 = lambda x: piecewise(x, lambda t: 8.0 / w + 0.0 * t, 2)
    d3 = lambda x: piecewise(x, lambda t: 0.0 * t, 3)
    cps = find_critical_points(d1, dom)
    return IntervalMap(dom, ev, d1, d2, d3, cps, label="twowell")


def viana_skew(a0=1.7, alpha=0.05, d=16):
    """Quadratic fibers a0 + alpha*sin(2 pi theta) - x^2 over theta -> d*theta.

    The fiber domain is the invariant interval [-beta, beta] with beta the
    positive fixed point of x -> (a0 - alpha) - x^2; for the default
    parameters beta ~ 1.8784, strictly inside [-2, 2].
    """
    if d < 2:
        raise ValueError("base degree must be >= 2")
    a_min = a0 - abs(alpha)
    a_max = a0 + abs(alpha)
    if a_min <= 0.75:
        raise ValueError("fiber family needs a0 - |alpha| > 3/4")
    beta = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a_min))
    if a_max > beta:
        raise ValueError("no invariant fiber interval for these parameters")
    dom = IntervalDomain(-beta, beta)
    two_pi = 2.0 * math.pi
    return SkewProduct(
        base_degree=int(d),
        base=lambda t: (d * t) % 1.0,
        base_derivative=lambda t: float(d) + 0.0 * t,
        fiber=lambda t, x: a0 + alpha * np.sin(two_pi * t) - x * x,
        fiber_dx=lambda t, x: -2.0 * x + 0.0 * t,
        fiber_dtheta=lambda t, x: alpha * two_pi * np.cos(two_pi * t) + 0.0 * x,
        fiber_dxx=lambda t, x: -2.0 + 0.0 * x + 0.0 * t,
        fiber_dxxx=lambda t, x: 0.0 * x + 0.0 * t,
        fiber_criticals=lambda t: (0.0,),
        fiber_domain=dom,
        base_affine=True,
        label=f"viana[a0={a0!r},alpha={alpha!r},d={d}]",
    )


_FAMILIES = {
    "logistic": lambda **kw: logistic_map(),
    "quadratic": lambda **kw: quadratic_map(kw.get("a", 1.7)),
    "affine": lambda **kw: affine_map(kw.get("slope", 1.0),
                                      kw.get("intercept", 0.0)),
    "identity": lambda **kw: identity_map(),
    "doubling": lambda **kw: doubling_map(),
    "moebius": lambda **kw: moebius_map(kw.get("shift", 2.0)),
    "twowell": lambda **kw: twowell_map(),
    "viana": lambda **kw: viana_skew(kw.get("a0", 1.7),
                                     kw.get("alpha", 0.05),
                                     int(kw.get("d", 16))),
}


def family_names():
    return sorted(_FAMILIES)


def make_system(family, **params):
    """Instantiate a catalogue family by name."""
    try:
        ctor = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; "
                         f"known: {', '.join(family_names())}") from None
    return ctor(**params)
