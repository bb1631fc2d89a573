"""Interval maps, map sequences and skew-products.

The objects here are immutable value types: a smooth self-map of an
interval with derivatives and a sorted critical-point list, an ordered
sequence of such maps sharing one domain, and a skew-product over an
expanding circle map driving a family of fiber maps.  Construction runs
sampled sanity checks (domain invariance, critical-point consistency,
domination) so that downstream modules can assume a well-posed system.

A system is an IntervalMap or a SkewProduct; both draw clouds
(`sample`), stream a cloud's iterates in stacked blocks (`orbit`), step
it once (`step`) and give the MapSequence one point sees (`sequence`).

Map families form a closed catalogue, `FAMILIES`, extended in source;
experiment configs refer to them by name via :func:`make_system`.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DerivativeVanishes, MissingDerivative

INVARIANCE_TOL = 1e-9
INVARIANCE_GRID = 2**12
CRITICAL_GRID = 2**14


def wrap(theta):
    """theta mod 1: Python's `% 1.0` on a float, floor-subtract on arrays.

    For every finite x, x - floor(x) rounds the same real number that
    np.remainder(x, 1.0) rounds (exactly, for x >= 0), so the two agree bit
    for bit, and +-inf gives NaN in both.  Floor-subtract is used because it
    is about 9-25x cheaper on arrays of 10^3 to 10^5 points (2x on 100;
    numpy 2.4.6), with one allocation.  A float or int stays a Python float,
    at the cost of one float mod.
    """
    if isinstance(theta, (float, int)):
        return theta % 1.0
    floor = np.floor(theta)
    if type(floor) is np.ndarray:
        return np.subtract(theta, floor, out=floor)
    return theta - floor


CRITICAL_DERIVATIVE = 1e-300     # |f'| at or below it is a critical hit

# Points per block of the cloud kernels: a cloud of `lanes` points is
# streamed over its steps in blocks of rows_per_block(lanes) rows.
_BLOCK_POINTS = 2**14


def rows_per_block(lanes):
    """Steps per block for a cloud of `lanes` points: a block holds about
    _BLOCK_POINTS points, and at least one step."""
    return max(1, _BLOCK_POINTS // max(1, lanes))


def log_abs(d):
    """log |d| by np.log, as a new float array of d's shape (0-d included),
    with -inf where |d| <= CRITICAL_DERIVATIVE and no numpy warning.  Every
    orbit kernel takes its log |f'| terms here; a hit's meaning is its own.
    """
    a = np.array(d, dtype=float)    # a copy, and a 0-d input stays an array
    hit = np.abs(a, out=a) <= CRITICAL_DERIVATIVE
    np.log(np.maximum(a, CRITICAL_DERIVATIVE, out=a), out=a)
    np.copyto(a, -np.inf, where=hit)
    return a


@dataclass(frozen=True)
class IntervalDomain:
    """A nondegenerate finite interval [lo, hi] with float endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        # int endpoints would make int brackets, which truncate pullbacks
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("domain endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi

    def grid(self, n):
        return np.linspace(self.lo, self.hi, n)


def find_critical_points(derivative, domain):
    """Locate zeros of f' by sign-change bisection to width 1e-12."""
    xs = domain.grid(CRITICAL_GRID)
    ds = np.asarray(derivative(xs), dtype=float)
    found = []
    sign = np.sign(ds)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        lo, hi = float(xs[i]), float(xs[i + 1])
        flo = float(ds[i])
        while hi - lo > 1e-12:
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


def _check_maps(evaluator, derivative, domain, cp, what,
                grid=INVARIANCE_GRID):
    """The construction checks of an interval map, or of a block of them.

    f maps a `grid`-point grid into the domain, cp is strictly increasing
    inside it with |f'| <= 1e-9 on it, and f' keeps one sign strictly
    between consecutive points of cp.  For a block of fiber maps
    `evaluator` and `derivative` return one row per map; every row counts.
    """
    ys = np.asarray(evaluator(domain.grid(grid)), dtype=float)
    over = max(domain.lo - ys.min(), ys.max() - domain.hi)
    if over > INVARIANCE_TOL:
        raise ValueError(f"{what} leaves its domain by {over:.3e}")
    if any(c2 <= c1 for c1, c2 in zip(cp, cp[1:])):
        raise ValueError("critical points must be strictly increasing")
    for c in cp:
        if not domain.contains(c):
            raise ValueError(f"critical point {c} outside domain")
        worst = float(np.max(np.abs(derivative(c))))
        if worst > 1e-9:
            raise ValueError(f"|f'({c})| reaches {worst:.3e} > 1e-9; "
                             "not a critical point")
    knots = [domain.lo, *cp, domain.hi]
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        ds = np.atleast_1d(np.asarray(
            derivative(np.linspace(a, b, 130)[1:-1]), dtype=float))
        if ((ds.max(axis=-1) > 0) & (ds.min(axis=-1) < 0)).any():
            raise ValueError(
                f"f' changes sign inside ({a}, {b}); missing critical point?")


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
        cp = tuple(float(c) for c in self.critical_points)
        object.__setattr__(self, "critical_points", cp)
        _check_maps(self.evaluator, self.derivative, self.domain, cp,
                    f"map {self.label!r}")

    def sample(self, rng, k):
        """k points drawn uniformly from the domain."""
        return rng.uniform(self.domain.lo, self.domain.hi, k)

    def orbit(self, state, n):
        """Iterates 0 .. n-1 of a cloud, stacked in blocks of
        rows_per_block(points) rows (the last may be shorter): n - 1 steps,
        one `evaluator` call each.  A one-row block is a read-only view of
        its row (the cloud itself in the first block), not a copy."""
        x = np.asarray(state, dtype=float)
        rows = rows_per_block(x.size)
        for j in range(0, n, rows):
            if j:
                x = np.asarray(self.evaluator(X[-1]), float)
            k = min(rows, n - j)
            if k == 1:
                X = x[None]
                X.flags.writeable = False
            else:
                X = np.empty((k,) + x.shape)
                X[0] = x
                for i in range(1, k):
                    X[i] = self.evaluator(X[i - 1])
            yield X

    def step(self, state):
        """The image of a cloud of points."""
        return np.asarray(self.evaluator(np.asarray(state, float)), float)

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


# x -> f(theta_j, x): a view that evaluates the skew-product, unchecked.
FiberMap = namedtuple("FiberMap", "domain evaluator derivative critical_points")
_THETA_BLOCK = 512    # most theta_j per block check: 16 MB of float64


class MapSequence:
    """Ordered interval maps f_0, f_1, ... on one shared domain.

    A constant sequence repeats the IntervalMap `m`.  A fiber sequence is a
    skew-product plus its base orbit theta_j (Python floats), extended with
    `SkewProduct.base_orbit` in blocks that grow geometrically from the
    index reached.  Each new block passes IntervalMap's checks in one 2-d
    evaluation; `map_at(j)` is then a FiberMap over f(theta_j, .).
    """

    def __init__(self, domain, m=None, skew=None, theta=0.0):
        self.domain = domain
        self.constant = skew is None
        self._map, self._skew = m, skew
        self._theta = [theta]     # the base orbit computed so far
        self._checked = 0         # theta_j with j < _checked passed the checks

    def thetas(self, stop):
        """The base orbit through at least theta_{stop-1}, all of it checked."""
        th, skew = self._theta, self._skew
        while self._checked < stop:
            start = self._checked
            end = min(max(stop, 2 * start), start + _THETA_BLOCK)
            if end > len(th):
                th.extend(skew.base_orbit(th[-1], end - len(th))[1:].tolist())
            T = np.array(th[start:end])[:, None]
            _check_maps(partial(skew.fiber, T), partial(skew.fiber_dx, T),
                        self.domain, skew.fiber_critical_points,
                        f"fiber map at theta_j, {start} <= j < {end},")
            self._checked = end
        return th

    def map_at(self, j):
        """f_j: the constant map itself, or a FiberMap over f(theta_j, .)."""
        if self.constant:
            return self._map
        th, skew = self.thetas(j + 1)[j], self._skew
        return FiberMap(self.domain, partial(skew.fiber, th),
                        partial(skew.fiber_dx, th), skew.fiber_critical_points)

    def chunk(self, start, k):
        """Steps start .. start+k-1 as (f, args, df): step start+i sends x to
        f(*(a[i] for a in args), x), and df(xs) is its derivative at xs[i].

        A fiber sequence steps by `skew.fiber_step` on the floats
        c(theta_j), which `skew.fiber_coefficient` gives on an array."""
        if self.constant:
            return self._map.evaluator, (), self._map.derivative
        T = np.array(self.thetas(start + k)[start:start + k])
        skew = self._skew
        return (skew.fiber_step, (skew.fiber_coefficient(T).tolist(),),
                partial(skew.fiber_dx, T))

    def compose(self, x, n):
        """Evaluate f_{n-1} o ... o f_0 at x (scalar or array)."""
        for j in range(n):
            x = self.map_at(j).evaluator(x)
        return x


def constant_sequence(m: IntervalMap):
    """The sequence f_k = m for all k."""
    return MapSequence(m.domain, m=m)


def estimate_modulus(seq: MapSequence, zeta):
    """Largest tested separation below which f_k and Df_k move less than zeta.

    Scans the lattice eps = m * |I0| / 1024 downward and returns the largest
    eps such that |f_k(x)-f_k(y)| < zeta and |Df_k(x)-Df_k(y)| < zeta for
    every k < 8 and every pair of a 512-point grid with |x - y| < eps; 0.0
    if even the smallest tested eps fails.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    dom = seq.domain
    xs = dom.grid(512)
    h = float(xs[1] - xs[0])
    nshift = 511
    worst = np.zeros(nshift + 1)   # worst[s]: max move over pairs at shift <= s
    for k in range(8):
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
    for mstep in range(1024, 0, -1):
        eps = mstep * length / 1024
        smax = min(nshift, max(0, math.ceil(eps / h) - 1))
        if worst[smax] < zeta:
            return eps
    return 0.0


# ---------------------------------------------------------------------------
# skew-products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialHyperbolicityReport:
    n_values: tuple
    max_ratio: tuple          # max over the grid of prod|d_x f| / |d_theta g^n|
    sigma_hat: float
    C: float
    decays: bool


@dataclass(frozen=True)
class SkewProduct:
    """(theta, x) -> (d*theta mod 1, f(theta, x)) with an integer d >= 2.

    The base map g(theta) = d*theta mod 1 is fixed by `base_degree`;
    `base` and `base_derivative` evaluate it on scalars and arrays.
    The fiber is given split, f(theta, x) = fiber_step(c(theta), x): the
    theta-coefficient c = `fiber_coefficient` takes an array of theta and
    returns c shaped like it, and the x-step `fiber_step(c, x)` takes
    floats or arrays.  `fiber(theta, x)` composes the two, so a one-orbit
    kernel evaluates c once per chunk of theta_j on an array and steps x on
    floats, and a cloud kernel evaluates c once per block of steps.
    `fiber_dx` and `fiber_dtheta` take (theta, x).
    `fiber_critical_points` is the strictly increasing critical set of
    every fiber map x -> f(theta, x), the same x values for every theta.
    `domination` is the `verify_partial_hyperbolicity` report that
    construction fits on its default test grid; its sigma_hat and C are the
    domination constants.

    Iterates of g have the bits of repeated application with a wrap to
    [0,1) after every step.  For d = 2^m row i is frac(d^i theta), computed
    in one exact multiply per 1023 // m rows; any other d is stepped row by
    row.  Neither keeps them accurate: the float orbit still collapses,
    each step shifting out m = log2(d) bits of the float's 53-bit
    mantissa, so an orbit reaches exactly 0.0 after about 53 / m steps and
    stays there (viana_skew().base_orbit(pi/10, 20) is 0.0 from step 13
    on); exact digit-stream orbits are planned (see ROADMAP).  `base_orbit`
    is the one theta source, for one orbit or, on an array, for a cloud of
    theta lanes: its rows come from `_base_rows`, but for a float orbit of
    a d that is not a power of two, which a Python loop steps.
    `theta_blocks` streams those rows block by block, each block continuing
    from the wrapped last row of the one before; it is the one place theta
    lanes are chained, and `orbit` and the branch statistics' cloud loop
    read their theta rows from it.

    `base` wraps once, with `wrap`: on an array d*theta - floor(d*theta)
    gives the bits of `% 1.0` at a fraction of np.remainder's cost, and on a
    float it is Python's `% 1.0`.  For theta in [0, 1) the result already
    lies in [0, 1), so no caller wraps it again.
    """

    base_degree: int
    fiber_coefficient: callable  # c(theta), on arrays
    fiber_step: callable         # f(theta, x) = fiber_step(c(theta), x)
    fiber_dx: callable
    fiber_dtheta: callable
    fiber_domain: IntervalDomain
    fiber_critical_points: tuple
    label: str = ""
    domination: PartialHyperbolicityReport = field(init=False)

    def __post_init__(self):
        d = self.base_degree
        if not (float(d).is_integer() and d >= 2):
            raise ValueError(f"base degree must be an integer >= 2, got {d!r}")
        object.__setattr__(self, "base_degree", int(d))
        object.__setattr__(self, "fiber_critical_points",
                           tuple(float(c) for c in self.fiber_critical_points))
        # IntervalMap's checks for the fibers over a 64-theta grid
        T = np.linspace(0.0, 1.0, 64, endpoint=False)[:, None]
        _check_maps(partial(self.fiber, T), partial(self.fiber_dx, T),
                    self.fiber_domain, self.fiber_critical_points, "fiber", 256)
        rep = verify_partial_hyperbolicity(self, n_max=12, grid=32)
        if not rep.decays:
            raise ValueError("no geometric domination on the test grid")
        object.__setattr__(self, "domination", rep)

    def base(self, theta):
        """g(theta) = d*theta mod 1 for a scalar or an array."""
        return wrap(self.base_degree * theta)

    def fiber(self, theta, x):
        """f(theta, x) for scalars or arrays that broadcast together."""
        return self.fiber_step(self.fiber_coefficient(theta), x)

    def base_derivative(self, theta):
        """g'(theta) = d, shaped like theta."""
        return float(self.base_degree) + 0.0 * theta

    def sample(self, rng, k):
        """k points (theta, x): all thetas first, then all fiber values."""
        dom = self.fiber_domain
        return rng.uniform(0.0, 1.0, k), rng.uniform(dom.lo, dom.hi, k)

    def theta_blocks(self, theta, n):
        """Rows 0 .. n-1 of the base orbits of a cloud of theta lanes, and
        c(theta) of each, in blocks (T, C) of rows_per_block(lanes) rows
        (the last may be shorter): the rows of one `base_orbit`, each row
        wrapped once, each block continuing from the last row of the one
        before.
        This is the one place theta lanes cross a block."""
        t = wrap(np.asarray(theta, dtype=float))
        rows = rows_per_block(np.size(t))
        for j in range(0, n, rows):
            T = _base_rows(self.base_degree, t, min(rows, n - 1 - j))
            t = T[-1]
            T = T[:rows]
            yield T, self.fiber_coefficient(T)

    def orbit(self, state, n):
        """Iterates 0 .. n-1 of a cloud (theta, x), stacked in blocks (T, X)
        of rows_per_block(points) rows (the last may be shorter): n - 1
        steps.  T and c(T) come from `theta_blocks`, x from one
        `fiber_step` call a row."""
        theta, x = state
        c = None
        for T, C in self.theta_blocks(theta, n):
            X = np.empty(T.shape[:1] + np.shape(x))
            X[0] = x if c is None else self.fiber_step(c, x)
            for i in range(1, len(X)):
                X[i] = self.fiber_step(C[i - 1], X[i - 1])
            # the carry, with C freed before the caller reads the block
            c, x = C[-1].copy(), X[-1]
            del C
            yield T, X

    def step(self, state):
        """The image (g(theta), f(theta, x)) of a cloud of points, c taken
        at theta mod 1."""
        theta, x = state
        T = self.base_orbit(theta, 1)
        c = self.fiber_coefficient(T[:1])[0]
        return T[1], np.asarray(self.fiber_step(c, x), float)

    def sequence(self, theta):
        """The fiber maps along the base orbit of theta."""
        return fiber_sequence(self, theta)

    def base_orbit(self, theta, n):
        """theta, g(theta), ..., g^n(theta), bit for bit the per-step orbit.

        A float gives the (n+1,) orbit, each step `base` on a float,
        d*t % 1.0.  An array of lanes gives rows of shape
        (n+1,) + theta.shape: row 0 is `wrap(theta)` and each later row
        `wrap` of d times the row before, bit for bit the float orbit of
        every lane.  Both come from `_base_rows` (a float as a 0-d lane),
        but for d not a power of two a float is stepped in a Python loop.
        """
        if n < 0:
            raise ValueError(f"base_orbit needs n >= 0, got {n!r}")
        d = self.base_degree
        if np.ndim(theta) == 0 and d & (d - 1):
            t = float(theta) % 1.0
            return np.array([t] + [t := d * t % 1.0 for _ in range(n)])
        return _base_rows(d, wrap(np.asarray(theta, dtype=float)), n)


def _base_rows(d, t, n):
    """The array base_orbit of lanes t already in [0, 1), such as the last
    row of an earlier block: row 0 is t as given (`wrap` of a wrapped row is
    the identity), and each later row `wrap` of d times the row before.

    For d = 2^m, row s + j is frac(2^(m j) * row s), filled for up to
    1023 // m rows j by one multiply and one `wrap` of the block: a
    power-of-two product is exact and below 2^1023, and x - floor(x) is
    exact for finite x >= 0, so each row has the bits of the per-row
    wrap(d * row).  Any other d takes one multiply and one wrap a row.
    """
    T = np.empty((n + 1,) + np.shape(t))
    T[0] = t
    if d & (d - 1):
        for i in range(n):
            T[i + 1] = wrap(d * T[i])
        return T
    m = d.bit_length() - 1
    k = 1023 // m
    scale = np.ldexp(1.0, m * np.arange(1, min(k, n) + 1))
    scale = scale.reshape(scale.shape + (1,) * np.ndim(t))
    for s in range(0, n, k):
        B = T[s + 1:s + 1 + k]
        B[...] = wrap(np.multiply(T[s], scale[:len(B)], out=B))
    return T


def fiber_sequence(skew: SkewProduct, theta):
    """The map sequence k -> f(g^k(theta), .) along one base orbit."""
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    return MapSequence(skew.fiber_domain, skew=skew, theta=theta)


def verify_partial_hyperbolicity(skew: SkewProduct, n_max=12, grid=32):
    """Check the domination ratio prod|d_x f| / |d_theta g^n| on a grid.

    Returns the per-n maxima together with fitted constants (C, sigma_hat)
    such that max_ratio(n) <= C * sigma_hat^n on the tested grid, and a
    flag for geometric decay.  The theta grid is frac(k * phi), phi the
    golden ratio: a dyadic grid k / grid reaches theta = 0 in a few float
    steps of an even base degree, and then the fit sees one fiber.  Float
    orbits of frac(k * phi) collapse later (to one theta from step 13 on at
    d = 16); a fit that would read such a step raises ValueError naming it.
    """
    if grid < 2 or n_max < 1:
        raise ValueError("need grid >= 2 and n_max >= 1")
    th = np.arange(grid) * ((1.0 + math.sqrt(5.0)) / 2.0) % 1.0
    xs = skew.fiber_domain.grid(grid)
    T, X = np.meshgrid(th, xs, indexing="ij")
    prod = np.ones(grid * grid)
    maxima = []
    for T, X in skew.orbit((T.ravel(), X.ravel()), n_max):
        for t, x in zip(T, X):
            if t.min() == t.max():
                raise ValueError("the domination grid holds one theta at "
                                 f"step {len(maxima)}")
            prod = prod * np.abs(skew.fiber_dx(t, x)) / np.abs(
                skew.base_derivative(t))
            maxima.append(float(prod.max()))
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


def quadratic_map(a=1.7):
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


def affine_map(slope=1.0, intercept=0.0):
    """slope*x + intercept; [0,1] must be invariant."""
    if slope == 0.0:
        raise ValueError("affine family needs a nonzero slope")
    return IntervalMap(
        IntervalDomain(0.0, 1.0),
        evaluator=lambda x: slope * x + intercept,
        derivative=lambda x: slope + 0.0 * x,
        second=lambda x: 0.0 * x,
        third=lambda x: 0.0 * x,
        critical_points=(),
        label=f"affine[{slope!r},{intercept!r}]",
    )


def identity_map():
    return affine_map(1.0, 0.0)


def doubling_map():
    """2x mod 1 on [0,1]; piecewise smooth with derivative 2 a.e."""
    dom = IntervalDomain(0.0, 1.0)
    return IntervalMap(
        dom,
        evaluator=lambda x: wrap(2.0 * x),
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

    # powers as products, so that a float and an array give the same bits
    def second(x):
        u = 1.0 + c * x
        return -2.0 * shift * c / (u * u * u)

    def third(x):
        u = 1.0 + c * x
        return 6.0 * shift * c * c / ((u * u) * (u * u))

    return IntervalMap(
        dom,
        evaluator=lambda x: shift * x / (1.0 + c * x),
        derivative=lambda x: shift / ((1.0 + c * x) * (1.0 + c * x)),
        second=second,
        third=third,
        critical_points=(),
        label=f"moebius[{shift!r}]",
    )


# Two-well map: [0, 0.45] and [0.55, 1] are invariant, each carrying a
# full-branch expanding quadratic, joined by a C^3 connector whose diagonal
# crossings are all repelling so the junction gap holds no attractor.
_WELL_LO = 0.45
_WELL_HI = 0.55
_GAP = _WELL_HI - _WELL_LO

# Coefficients of the degree-10 connector in s = (x - 0.45) / gap and of its
# first three derivatives in s, highest degree first for Horner's rule.  The
# connector is the degree-7 Hermite join matching both wells' value and first
# three derivatives at s = 0 and s = 1, plus a bump
# (s(1-s))^4 (a + b s + c s^2) fitted through (0.35, 0.20), (0.50, 0.17) and
# (0.65, 0.28), which plunges it into the left well so that every diagonal
# crossing is repelling.  The floats are stored as literals;
# test_connector_literals_equal_their_derivation in tests/test_maps.py
# re-derives them by two linear solves and checks them bit for bit.
_TW_CONNECTOR = (
    (-559.1851811269239, 2976.815000060138, -6630.129031465804,
     7942.780858911424, -5431.296227192527, 2027.1798677526278,
     -326.5541758278241, 0.0, 0.08888888888888895, 0.40000000000000013,
     0.45),
    (-5591.851811269239, 26791.335000541243, -53041.03225172643,
     55599.46601237997, -32587.77736315516, 10135.89933876314,
     -1306.2167033112964, 0.0, 0.1777777777777779, 0.40000000000000013),
    (-50326.66630142315, 214330.68000432994, -371287.225762085,
     333596.7960742798, -162938.8868157758, 40543.59735505256,
     -3918.6501099338893, 0.0, 0.1777777777777779),
    (-402613.3304113852, 1500314.7600303097, -2227723.35457251,
     1667983.980371399, -651755.5472631032, 121630.79206515767,
     -7837.300219867779, 0.0),
)


def _twowell_connector(s, order):
    """The connector's order-th derivative at s = (x - 0.45) / gap, by
    Horner's rule; the same operations on a float and on an array."""
    top, *rest = _TW_CONNECTOR[order]
    y = top * s
    for c in rest[:-1]:
        y += c
        y *= s
    y += rest[-1]
    if order:
        y /= _GAP ** order
    return y


def twowell_map():
    """C^3 map of [0,1] with invariant wells [0, 0.45] and [0.55, 1]."""
    dom = IntervalDomain(0.0, 1.0)
    w = _WELL_LO

    def piecewise(x, left, right, order):
        """Left well, connector or right well at x clamped to [0, 1].

        A float takes plain float arithmetic, in the operation order of the
        array branch.  An array evaluates both wells at every point and the
        connector only at its gap points, if it has any.  Each piece clamps
        only the end its own points can pass: the left well at 0, the right
        well at 1, and for 0.45 <= x <= 0.55 the connector's s already lies
        in [0, 1].
        """
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
            if x.ndim:
                below = x < _WELL_LO
                out = right(np.minimum(x, 1.0) - _WELL_HI)
                np.copyto(out, left(np.maximum(x, 0.0)), where=below)
                gap = x <= _WELL_HI
                gap ^= below
                if np.count_nonzero(gap):
                    out[gap] = _twowell_connector(
                        (x[gap] - _WELL_LO) / _GAP, order)
                return out
        x = float(x)
        if x < _WELL_LO:
            # max(0.0, x) sends -0.0 to 0.0, as np.maximum does
            return left(max(0.0, x))
        if x > _WELL_HI:
            return right(min(x, 1.0) - _WELL_HI)
        return _twowell_connector((x - _WELL_LO) / _GAP, order)

    def left_well(t):
        u = 1.0 - 2.0 * t / w
        return w * (u * u)

    ev = lambda x: piecewise(x, left_well,
                             lambda t: _WELL_HI + 4.0 * t * (w - t) / w, 0)
    d1 = lambda x: piecewise(x, lambda t: -4.0 * (1.0 - 2.0 * t / w),
                             lambda t: 4.0 * (1.0 - 2.0 * t / w), 1)
    d2 = lambda x: piecewise(x, lambda t: 8.0 / w + 0.0 * t,
                             lambda t: -8.0 / w + 0.0 * t, 2)
    d3 = lambda x: piecewise(x, lambda t: 0.0 * t, lambda t: 0.0 * t, 3)
    cps = find_critical_points(d1, dom)
    return IntervalMap(dom, ev, d1, d2, d3, cps, label="twowell")


def viana_skew(a0=1.7, alpha=0.05, d=16):
    """Quadratic fibers a0 + alpha*sin(2 pi theta) - x^2 over theta -> d*theta.

    The fiber is split as c(theta) = a0 + alpha*sin(2 pi theta) and the
    x-step c - x^2, the operations of the unsplit formula in its order, so
    both give the same bits.  The fiber domain is the invariant interval [-beta, beta] with beta the
    positive fixed point of x -> (a0 - alpha) - x^2; for the default
    parameters beta ~ 1.8784, strictly inside [-2, 2].  d must be integral.
    """
    if not float(d).is_integer():
        raise ValueError(f"base degree must be an integer, got {d!r}")
    d = int(d)
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
        base_degree=d,
        fiber_coefficient=lambda t: a0 + alpha * np.sin(two_pi * t),
        fiber_step=lambda c, x: c - x * x,
        fiber_dx=lambda t, x: -2.0 * x + 0.0 * t,
        fiber_dtheta=lambda t, x: alpha * two_pi * np.cos(two_pi * t) + 0.0 * x,
        fiber_domain=dom,
        fiber_critical_points=(0.0,),
        label=f"viana[a0={a0!r},alpha={alpha!r},d={d}]",
    )


# name -> (constructor, the keyword parameters a config may set)
FAMILIES = {
    "logistic": (logistic_map, ()),
    "quadratic": (quadratic_map, ("a",)),
    "affine": (affine_map, ("slope", "intercept")),
    "identity": (identity_map, ()),
    "doubling": (doubling_map, ()),
    "moebius": (moebius_map, ("shift",)),
    "twowell": (twowell_map, ()),
    "viana": (viana_skew, ("a0", "alpha", "d")),
}


def family_names():
    return sorted(FAMILIES)


def make_system(family, **params):
    """Instantiate a catalogue family by name with the parameters it takes."""
    try:
        ctor, allowed = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; "
                         f"known: {', '.join(family_names())}") from None
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"family {family!r} takes no parameter "
                         f"{', '.join(unknown)}")
    return ctor(**params)
