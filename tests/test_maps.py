import inspect
import math
import warnings

import numpy as np
import pytest

from fiberdyn import (DerivativeVanishes, IntervalDomain, IntervalMap,
                      MissingDerivative, constant_sequence, estimate_modulus,
                      fiber_sequence, find_critical_points, identity_map,
                      make_system, maps, moebius_map, quadratic_map,
                      schwarzian, track_branch,
                      verify_partial_hyperbolicity, viana_skew)
from fiberdyn import expansion
from fiberdyn.expansion import ftle_fiber
from fiberdyn.rng import make_generator


class TestSchwarzian:
    def test_logistic_at_zero(self, logistic):
        # f' = 4, f'' = -8, f''' = 0 at x = 0, so Sf = -1.5 * (”-8/4”)^2
        assert schwarzian(logistic, 0.0) == pytest.approx(-6.0, abs=1e-12)

    def test_affine_is_zero(self):
        m = maps.affine_map(0.5, 0.2)
        assert schwarzian(m, 0.37) == 0.0

    def test_critical_point_raises(self, logistic):
        with pytest.raises(DerivativeVanishes):
            schwarzian(logistic, 0.5)

    def test_missing_derivative_raises(self):
        m = IntervalMap(IntervalDomain(0.0, 1.0),
                        lambda x: 0.5 * x, lambda x: 0.5 + 0.0 * x)
        with pytest.raises(MissingDerivative):
            schwarzian(m, 0.3)

    def test_moebius_schwarzian_vanishes(self):
        m = moebius_map(3.0)
        for x in np.linspace(0.05, 0.95, 7):
            assert abs(schwarzian(m, x)) < 1e-12

    def test_negative_on_logistic_everywhere(self, logistic):
        # quadratic family has Sf < 0 wherever defined
        for x in np.linspace(0.001, 0.999, 211):
            if abs(x - 0.5) < 1e-3:
                continue
            assert schwarzian(logistic, x) < 0.0


class TestIntervalMap:
    def test_critical_point_derivative_small(self, logistic, twowell):
        for m in (logistic, twowell, quadratic_map(1.7)):
            for c in m.critical_points:
                assert abs(float(m.derivative(c))) <= 1e-9

    def test_derivative_sign_constant_between_criticals(self, twowell):
        for m in (maps.logistic_map(), twowell):
            knots = [m.domain.lo, *m.critical_points, m.domain.hi]
            for a, b in zip(knots, knots[1:]):
                xs = np.linspace(a, b, 1002)[1:-1]
                ds = np.asarray(m.derivative(xs))
                assert ds.max() < 0 or ds.min() > 0

    def test_found_criticals_match_closed_form(self):
        cases = [(maps.logistic_map(), (0.5,)),
                 (quadratic_map(1.7), (0.0,))]
        for m, expected in cases:
            found = find_critical_points(m.derivative, m.domain)
            assert len(found) == len(expected)
            for f, e in zip(found, expected):
                assert abs(f - e) <= 1e-10

    def test_twowell_well_centers_found(self, twowell):
        # well centers sit at closed-form positions 0.225 and 0.775
        assert any(abs(c - 0.225) <= 1e-10 for c in twowell.critical_points)
        assert any(abs(c - 0.775) <= 1e-10 for c in twowell.critical_points)

    def test_twowell_c3_at_junctions(self, twowell):
        # connector matches value and three derivatives of the wells
        h = 1e-7
        for junction in (0.45, 0.55):
            for order, fn in ((0, twowell.evaluator),
                              (1, twowell.derivative),
                              (2, twowell.second)):
                left = float(fn(junction - h))
                right = float(fn(junction + h))
                scale = max(1.0, abs(left))
                assert abs(right - left) <= 1e-4 * scale

    def test_twowell_wells_invariant(self, twowell):
        xs = np.linspace(0.0, 0.45, 2001)
        ys = twowell.evaluator(xs)
        assert ys.min() >= -1e-12 and ys.max() <= 0.45 + 1e-12
        xs = np.linspace(0.55, 1.0, 2001)
        ys = twowell.evaluator(xs)
        assert ys.min() >= 0.55 - 1e-12 and ys.max() <= 1.0 + 1e-12

    def test_domain_escape_rejected(self):
        with pytest.raises(ValueError, match="leaves its domain"):
            IntervalMap(IntervalDomain(0.0, 1.0),
                        lambda x: x + 0.5, lambda x: 1.0 + 0.0 * x)

    def test_unsorted_criticals_rejected(self):
        with pytest.raises(ValueError):
            IntervalMap(IntervalDomain(-1.0, 1.0),
                        lambda x: x**3 * 0.5,
                        lambda x: 1.5 * x**2,
                        critical_points=(0.0, 0.0))


class TestFiberSequence:
    def test_theta_zero_is_unperturbed_quadratic(self, viana):
        seq = fiber_sequence(viana, 0.0)
        m0 = seq.map_at(0)
        xs = np.linspace(-1.5, 1.5, 11)
        assert np.allclose(m0.evaluator(xs), 1.7 - xs**2, atol=1e-12)

    def test_theta_zero_fixed_by_base(self, viana):
        # g(0) = 0, so the k=1 map equals the k=0 map
        seq = fiber_sequence(viana, 0.0)
        xs = np.linspace(-1.5, 1.5, 11)
        assert np.allclose(seq.map_at(1).evaluator(xs),
                           seq.map_at(0).evaluator(xs), atol=0)

    def test_parameter_matches_scalar_base_orbit(self, viana):
        # independent scalar computation of g^2(0.3) for d = 16
        t = 0.3
        t = (16.0 * t) % 1.0
        t = (16.0 * t) % 1.0
        expected = 1.7 + 0.05 * math.sin(2.0 * math.pi * t)
        seq = fiber_sequence(viana, 0.3)
        m2 = seq.map_at(2)
        assert float(m2.evaluator(0.0)) == pytest.approx(expected, abs=1e-12)

    def test_accessor_repeatable(self, viana):
        # map_at keeps no map per index: each call gives a fresh view of
        # the same theta_j, which must evaluate bit for bit alike
        seq = fiber_sequence(viana, 0.123)
        xs = np.linspace(-1.5, 1.5, 11)
        a = seq.map_at(5)
        seq.map_at(40)
        b = seq.map_at(5)
        for fa, fb in ((a.evaluator, b.evaluator), (a.derivative, b.derivative)):
            assert fa(xs).tobytes() == fb(xs).tobytes()
            assert float(fa(0.3)) == float(fb(0.3))
        assert a.critical_points == b.critical_points == (0.0,)
        assert a.domain == b.domain == viana.fiber_domain

    def test_fiber_criticals_match_bisection(self, viana):
        seq = fiber_sequence(viana, 0.37)
        for k in (0, 1, 2):
            m = seq.map_at(k)
            found = find_critical_points(m.derivative, m.domain)
            assert len(found) == len(m.critical_points)
            for f, e in zip(found, m.critical_points):
                assert abs(f - e) <= 1e-10

    def test_theta_out_of_range(self, viana):
        with pytest.raises(ValueError):
            fiber_sequence(viana, 1.5)


def _off_grid_skew():
    """x -> x/2 + 0.6 sin^2(64 pi theta) on [-1, 1].

    The bump vanishes on the 64-theta construction grid theta = i/64, so
    construction accepts it, but at theta = 1/128 it sends x = 1 to 1.1.
    """
    return maps.SkewProduct(
        base_degree=2,
        fiber_coefficient=lambda t: 0.6 * np.sin(64 * np.pi * t) ** 2,
        fiber_step=lambda c, x: 0.5 * x + c,
        fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
        fiber_dtheta=lambda t, x: 38.4 * np.pi * np.sin(128 * np.pi * t)
        + 0.0 * x,
        fiber_domain=IntervalDomain(-1.0, 1.0),
        fiber_critical_points=(),
    )


class TestFiberBlocks:
    """Fiber sequences check their theta_j in blocks, not map by map."""

    def _count(self, monkeypatch):
        built, checks = [], []
        post_init, check = maps.IntervalMap.__post_init__, maps._check_maps
        monkeypatch.setattr(maps.IntervalMap, "__post_init__",
                            lambda m: built.append(m) or post_init(m))
        monkeypatch.setattr(maps, "_check_maps",
                            lambda *a, **kw: checks.append(a) or check(*a, **kw))
        return built, checks

    def test_ftle_builds_no_interval_map(self, monkeypatch):
        skew = viana_skew()
        built, checks = self._count(monkeypatch)
        n = 4096
        val = ftle_fiber(fiber_sequence(skew, 0.3), 0.2, n)
        assert math.isfinite(val)
        assert built == []
        assert 1 <= len(checks) <= math.ceil(math.log2(n)) + 1

    def test_blocks_grow_with_the_index_reached(self, monkeypatch):
        skew = viana_skew()
        built, checks = self._count(monkeypatch)
        seq = fiber_sequence(skew, 0.3)
        for j in range(100):
            seq.map_at(j)
        assert built == []
        assert len(checks) == math.ceil(math.log2(100)) + 1
        assert len(seq.thetas(0)) == 128
        # a depth-5 branch checks 8 theta_j, not a fixed large block
        seq = fiber_sequence(skew, 0.3)
        track_branch(seq, 0.2, 5)
        assert len(seq.thetas(0)) == 8

    def test_fiber_leaving_domain_off_the_construction_grid(self):
        skew = _off_grid_skew()
        seq = fiber_sequence(skew, 1.0 / 256)       # theta_1 = 1/128
        assert float(seq.map_at(0).evaluator(1.0)) == pytest.approx(0.8)
        with pytest.raises(ValueError, match="leaves its domain"):
            seq.map_at(1)
        with pytest.raises(ValueError, match="leaves its domain"):
            ftle_fiber(fiber_sequence(skew, 1.0 / 256), 0.1, 5)
        # elsewhere the same skew-product runs
        assert math.isfinite(ftle_fiber(fiber_sequence(skew, 0.0), 0.1, 50))


class TestFiberSplit:
    """One theta source for one orbit, and the fiber split into its
    theta-coefficient c(theta) and x-step, bit for bit."""

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_base_orbit_is_a_per_step_base_loop(self, d):
        skew = viana_skew(d=d)
        ns = sorted({0, 1, *(edge + i for edge in (maps._THETA_BLOCK,
                                                   expansion._ORBIT_CHUNK)
                             for i in (-1, 0, 1))})
        thetas = (0.3, 0.987654, 1.0 / 3.0, 1.25, 0.0,
                  float(np.nextafter(1.0, 0.0)))
        orbits = []
        for theta in thetas:
            want = [float(theta) % 1.0]
            for _ in range(max(ns)):
                want.append(skew.base(want[-1]))
            orbits.append(want)
            for n in ns:
                got = skew.base_orbit(theta, n)
                assert got.dtype == np.float64 and got.shape == (n + 1,)
                assert got.tobytes() == np.array(want[:n + 1]).tobytes(), n
        # a cloud of theta: one orbit per lane, in 1-d and 2-d arrays
        lanes = np.array(thetas)
        want = np.array(orbits).T
        for n in ns:
            got = skew.base_orbit(lanes, n)
            assert got.dtype == np.float64 and got.shape == (n + 1, 6)
            assert got.tobytes() == want[:n + 1].tobytes(), n
            got = skew.base_orbit(lanes.reshape(2, 3), n)
            assert got.shape == (n + 1, 2, 3)
            assert got.tobytes() == want[:n + 1].tobytes(), n

    @pytest.mark.parametrize("n", [511, 512, 513, 1025])
    @pytest.mark.parametrize("d", [3, 16])
    def test_fiber_sequence_thetas_are_one_base_orbit(self, d, n):
        # a fiber sequence extends theta_j in blocks of at most
        # _THETA_BLOCK, each restarting base_orbit from the last theta;
        # reached by one call or a map_at walk, they are one orbit's rows
        skew = viana_skew(d=d)
        want = skew.base_orbit(0.3, n - 1).tobytes()
        seq = fiber_sequence(skew, 0.3)
        assert np.array(seq.thetas(n)[:n]).tobytes() == want
        walk = fiber_sequence(skew, 0.3)
        for j in range(n):
            walk.map_at(j)
        assert np.array(walk.thetas(n)[:n]).tobytes() == want

    @pytest.mark.parametrize("d", [2, 32, 1024, 2**20, 10])
    def test_base_rows_match_a_per_row_wrap(self, d):
        # d = 2^m fills up to 1023 // m rows by one multiply; n runs across
        # that chunk edge, and since RuntimeWarnings are errors, no chunk
        # may overflow
        k = 1023 // (d.bit_length() - 1)
        t = np.array([0.0, 5e-324, 1.0 - 2.0**-53, 0.3, np.nan])
        for n in (k - 1, k, k + 1, 2 * k + 1):
            want = [t]
            for _ in range(n):
                want.append(maps.wrap(d * want[-1]))
            got = maps._base_rows(d, t, n)
            assert got.shape == (n + 1, 5)
            assert got.tobytes() == np.array(want).tobytes(), n

    @pytest.mark.parametrize("d", [3, 16])
    @pytest.mark.parametrize("n", [-1, -2, -5])
    def test_negative_base_orbit_length_raises(self, d, n):
        skew = viana_skew(d=d)
        for theta in (0.3, np.array([0.3, 0.7])):
            with pytest.raises(ValueError, match=f"got {n}"):
                skew.base_orbit(theta, n)

    def test_chained_blocks_wrap_each_row_once(self, viana, block_rows,
                                               monkeypatch):
        # a block after the first continues from the wrapped last row of
        # the block before: every row wrapped once (a wrap takes one row or
        # a stack of rows), the rows of one base_orbit, and c(theta) of
        # each row
        theta, x = viana.sample(make_generator(31), 100)
        n = 2 * block_rows + 3
        want = viana.base_orbit(theta, n - 1)
        wrapped = []
        real = maps.wrap
        monkeypatch.setattr(maps, "wrap",
                            lambda t: wrapped.append(np.shape(t)) or real(t))

        def wrapped_rows():
            assert all(s[-1:] == (100,) and len(s) <= 2 for s in wrapped)
            return sum(s[0] if len(s) == 2 else 1 for s in wrapped)

        blocks = list(viana.theta_blocks(theta, n))
        assert [len(T) for T, _ in blocks] == [
            min(block_rows, n - j) for j in range(0, n, block_rows)]
        assert wrapped_rows() == n
        got = np.concatenate([T for T, _ in blocks])
        assert got.tobytes() == want.tobytes()
        for T, C in blocks:
            assert C.tobytes() == viana.fiber_coefficient(T).tobytes()
        # the orbit's theta rows, and the branch statistics' theta rows
        wrapped.clear()
        rows = [T for T, _ in viana.orbit((theta, x), n)]
        assert np.concatenate(rows).tobytes() == want.tobytes()
        assert wrapped_rows() == n
        wrapped.clear()
        for _ in expansion._cloud_branch_rows(viana, (theta, x), n):
            pass
        assert wrapped_rows() == n

    def test_viana_fiber_is_its_split(self, viana):
        two_pi = 2.0 * math.pi
        unsplit = lambda t, x: 1.7 + 0.05 * np.sin(two_pi * t) - x * x
        rng = make_generator(23)
        dom = viana.fiber_domain
        T = rng.uniform(0.0, 1.0, 10**5)
        X = rng.uniform(dom.lo, dom.hi, 10**5)
        T[:4] = (0.0, 0.25, 0.5, 0.75)
        pairs = list(zip(T[:300].tolist(), X[:300].tolist()))
        cases = ([(T, X)] + pairs
                 + [(np.array(t), np.array(x)) for t, x in pairs[:50]])
        for t, x in cases:
            want = unsplit(t, x)
            for got in (viana.fiber(t, x),
                        viana.fiber_step(viana.fiber_coefficient(t), x)):
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("d", [3, 16])
    def test_chunk_steps_reproduce_map_at(self, d):
        seq = fiber_sequence(viana_skew(d=d), 0.3)
        xs = make_generator(24).uniform(-1.5, 1.5, 700)
        # the last chunk crosses the theta block boundary at 512
        for start, k in ((0, 1), (0, 700), (300, 400)):
            f, args, df = seq.chunk(start, k)
            dfs = df(xs[:k])
            for i, x in enumerate(xs[:k].tolist()):
                m = seq.map_at(start + i)
                assert (_bits(f(*(a[i] for a in args), x))
                        == _bits(m.evaluator(x)))
                assert _bits(dfs[i]) == _bits(m.derivative(x))


class TestSystemProtocol:
    """sample / step / sequence on interval maps and skew-products."""

    def test_interval_map(self, logistic):
        xs = logistic.sample(make_generator(4), 5)
        ref = make_generator(4).uniform(0.0, 1.0, 5)
        assert np.array_equal(xs, ref)
        assert np.array_equal(logistic.step(xs), 4.0 * xs * (1.0 - xs))
        seq = logistic.sequence(0.3)
        assert seq.constant and seq.map_at(9) is logistic

    def test_skew_product(self, viana):
        th, xs = viana.sample(make_generator(4), 5)
        rng = make_generator(4)
        dom = viana.fiber_domain
        assert np.array_equal(th, rng.uniform(0.0, 1.0, 5))
        assert np.array_equal(xs, rng.uniform(dom.lo, dom.hi, 5))
        th1, xs1 = viana.step((th, xs))
        assert np.array_equal(th1, (16.0 * th) % 1.0)
        assert np.array_equal(xs1, viana.fiber(th, xs))
        seq = viana.sequence(0.3)
        assert not seq.constant
        assert seq.map_at(1).evaluator(0.0) == viana.fiber(
            viana.base(0.3), 0.0)

    @pytest.mark.parametrize("family", ["logistic", "twowell", "viana"])
    def test_orbit_is_repeated_step(self, family, block_rows):
        # blocks of rows_per_block rows, the last shorter, holding
        # iterates 0 .. n-1 bit for bit as `step` gives them; a one-row
        # block of the cloud is a read-only view of it
        system = maps.make_system(family)
        state = system.sample(make_generator(8), 100)
        skew = isinstance(system, maps.SkewProduct)
        for n in (1, 2, 2 * block_rows + 3):
            blocks = list(system.orbit(state, n))
            assert [len(b[1] if skew else b) for b in blocks] == [
                min(block_rows, n - j) for j in range(0, n, block_rows)]
            want, z = [], state
            for _ in range(n):
                want.append(z)
                z = system.step(z)
            if skew:
                for i in (0, 1):
                    got = np.concatenate([b[i] for b in blocks])
                    assert got.tobytes() == np.array(
                        [w[i] for w in want]).tobytes()
            else:
                got = np.concatenate(blocks)
                assert got.tobytes() == np.array(want).tobytes()
                if len(blocks[0]) == 1:
                    assert np.shares_memory(blocks[0], state)
                    assert not blocks[0].flags.writeable

    def test_one_point_draws_equal_scalar_draws(self, logistic, viana):
        a, b = make_generator(11), make_generator(11)
        dom = viana.fiber_domain
        for _ in range(50):
            assert float(logistic.sample(a, 1)[0]) == float(b.uniform(0, 1))
            th, x = viana.sample(a, 1)
            assert float(th[0]) == float(b.uniform(0, 1))
            assert float(x[0]) == float(b.uniform(dom.lo, dom.hi))


class _BareSkew:
    """Duck-typed stand-in for domination checks on unconstructible systems."""

    theta_blocks = maps.SkewProduct.theta_blocks
    orbit = maps.SkewProduct.orbit

    def __init__(self, base_degree, base_derivative, fiber_coefficient,
                 fiber_step, fiber_dx, fiber_domain):
        self.base_degree = base_degree
        self.base_derivative = base_derivative
        self.fiber_coefficient = fiber_coefficient
        self.fiber_step = fiber_step
        self.fiber_dx = fiber_dx
        self.fiber_domain = fiber_domain


class TestPartialHyperbolicity:
    def test_viana_defaults_dominated(self, viana):
        rep = verify_partial_hyperbolicity(viana, n_max=12, grid=32)
        assert rep.decays
        assert rep.sigma_hat <= 0.25
        # per-step interval bound: sup |2x| over the fiber domain, over d
        assert rep.max_ratio[0] <= 2 * viana.fiber_domain.hi / 16 + 1e-12

    def test_bound_holds_on_grid(self, viana):
        rep = verify_partial_hyperbolicity(viana, n_max=10, grid=24)
        for n, r in zip(rep.n_values, rep.max_ratio):
            assert r <= rep.C * rep.sigma_hat**n * (1 + 1e-9)

    def test_fitted_domination_pinned(self):
        """float.hex of the fitted constants on the theta grid frac(k phi)."""
        got = [(s.domination.sigma_hat.hex(), s.domination.C.hex())
               for s in (viana_skew(), viana_skew(d=3))]
        assert got == [("0x1.e40880b5c349ep-4", "0x1.4e974d09ea53bp+4"),
                       ("0x1.526f68a3c2170p-1", "0x1.5405fc843fffdp+3")]

    def test_domination_is_the_construction_fit(self):
        skew = viana_skew()
        assert skew.domination == verify_partial_hyperbolicity(skew, 12, 32)

    def test_fit_sees_more_than_one_theta(self, viana):
        # the dyadic grid k/32 stepped twice at d = 16 is theta = 0 only;
        # every step the default fit reads holds more than one theta, and
        # steps 0 .. 10 hold all 32
        seen = []

        def base_derivative(t):
            seen.append(np.unique(t).size)
            return viana.base_derivative(t)

        spy = _BareSkew(16, base_derivative, viana.fiber_coefficient,
                        viana.fiber_step, viana.fiber_dx, viana.fiber_domain)
        verify_partial_hyperbolicity(spy, n_max=12, grid=32)
        assert len(seen) == 12 and seen[2] > 1 and min(seen) > 1
        assert seen[:11] == [32] * 11

    def test_collapsed_grid_raises(self, viana):
        # at d = 16 the grid holds 2 theta at step 12 and one from step 13
        # on: a fit that reads step 13 would fit the theta = 0 fiber
        rep = verify_partial_hyperbolicity(viana, n_max=13, grid=32)
        assert rep.n_values[-1] == 13
        with pytest.raises(ValueError, match="one theta at step 13"):
            verify_partial_hyperbolicity(viana, n_max=14, grid=32)
        # d = 32 collapses within the 12 steps construction fits
        with pytest.raises(ValueError, match="one theta at step 10"):
            viana_skew(d=32)

    def test_constant_fiber_ratio_zero(self):
        bare = _BareSkew(16, lambda t: 16.0 + 0.0 * t,
                         lambda t: 0.3 + 0.0 * t,
                         lambda c, x: c + 0.0 * x,
                         lambda t, x: 0.0 * x + 0.0 * t,
                         IntervalDomain(0.0, 1.0))
        rep = verify_partial_hyperbolicity(bare, n_max=6, grid=16)
        assert rep.decays
        assert all(r == 0.0 for r in rep.max_ratio)

    def test_tent_fiber_no_domination(self):
        # slope-2 tent fiber over a degree-2 base: ratio 1 at every n
        bare = _BareSkew(2, lambda t: 2.0 + 0.0 * t,
                         lambda t: 0.0 * t,
                         lambda c, x: 1.0 - np.abs(2.0 * x - 1.0) + c,
                         lambda t, x: np.where(x < 0.5, 2.0, -2.0) + 0.0 * t,
                         IntervalDomain(0.0, 1.0))
        rep = verify_partial_hyperbolicity(bare, n_max=6, grid=17)
        assert not rep.decays
        assert rep.max_ratio[0] == pytest.approx(1.0)

    def test_undominated_construction_rejected(self):
        with pytest.raises(ValueError, match="domination"):
            maps.SkewProduct(
                base_degree=2,
                fiber_coefficient=lambda t: 0.0 * t,
                fiber_step=lambda c, x: 4.0 * x * (1.0 - x) + c,
                fiber_dx=lambda t, x: 4.0 - 8.0 * x + 0.0 * t,
                fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
                fiber_critical_points=(0.5,),
                fiber_domain=IntervalDomain(0.0, 1.0),
            )

    def test_viana_domain_is_invariant_interval(self, viana):
        beta = 0.5 * (1 + math.sqrt(1 + 4 * 1.65))
        assert viana.fiber_domain.hi == pytest.approx(beta, abs=1e-12)
        th = np.linspace(0, 1, 257, endpoint=False)
        xs = viana.fiber_domain.grid(257)
        T, X = np.meshgrid(th, xs, indexing="ij")
        ys = viana.fiber(T, X)
        assert ys.max() <= viana.fiber_domain.hi + 1e-9
        assert ys.min() >= viana.fiber_domain.lo - 1e-9


def _viana_fields(**overrides):
    """The construction arguments of viana_skew(), with overrides."""
    v = viana_skew()
    kw = dict(base_degree=v.base_degree,
              fiber_coefficient=v.fiber_coefficient, fiber_step=v.fiber_step,
              fiber_dx=v.fiber_dx,
              fiber_dtheta=v.fiber_dtheta, fiber_domain=v.fiber_domain,
              fiber_critical_points=v.fiber_critical_points)
    kw.update(overrides)
    return kw


def _contracting_skew(d):
    """x -> x/2 over theta -> d*theta mod 1; dominated for every d >= 2."""
    return maps.SkewProduct(
        base_degree=d,
        fiber_coefficient=lambda t: 0.0 * t,
        fiber_step=lambda c, x: 0.5 * x + c,
        fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
        fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
        fiber_domain=IntervalDomain(-0.5, 0.5),
        fiber_critical_points=(),
    )


class TestSkewProductConstruction:
    def test_viana_fields_rebuild_viana(self, viana):
        skew = maps.SkewProduct(**_viana_fields())
        assert skew.base_degree == 16
        assert skew.fiber_critical_points == (0.0,)
        assert skew.domination == viana.domination

    def test_critical_point_not_critical(self):
        # the viana fiber has d_x f = -0.6 at x = 0.3
        with pytest.raises(ValueError, match="not a critical point"):
            maps.SkewProduct(**_viana_fields(fiber_critical_points=(0.3,)))

    def test_critical_point_not_critical_at_some_theta(self):
        # d_x f vanishes at x = 0 only where sin(2 pi theta) = 0
        v = viana_skew()
        with pytest.raises(ValueError, match="not a critical point"):
            maps.SkewProduct(**_viana_fields(
                fiber_dx=lambda t, x: v.fiber_dx(t, x)
                + 1e-3 * np.sin(2.0 * np.pi * t)))

    def test_critical_point_outside_domain(self):
        with pytest.raises(ValueError, match="outside domain"):
            maps.SkewProduct(**_viana_fields(fiber_critical_points=(0.0, 2.5)))

    def test_missing_critical_point_rejected(self):
        # d_x f = -2x changes sign at 0, which the empty tuple leaves out
        with pytest.raises(ValueError, match="changes sign"):
            maps.SkewProduct(**_viana_fields(fiber_critical_points=()))

    @pytest.mark.parametrize("cps", [(0.0, -0.5), (0.0, 0.0)])
    def test_unsorted_critical_points(self, cps):
        with pytest.raises(ValueError, match="strictly increasing"):
            maps.SkewProduct(**_viana_fields(fiber_critical_points=cps))

    @pytest.mark.parametrize("d", [2.5, 1, 0, -16, float("nan")])
    def test_bad_base_degree(self, d):
        with pytest.raises(ValueError, match="base degree"):
            maps.SkewProduct(**_viana_fields(base_degree=d))

    def test_viana_degree_one_rejected(self):
        with pytest.raises(ValueError, match="base degree"):
            viana_skew(d=1)

    def test_integral_float_degree_becomes_int(self):
        skew = _contracting_skew(16.0)
        assert type(skew.base_degree) is int and skew.base_degree == 16

    @pytest.mark.parametrize("name", ["base", "base_derivative", "domination",
                                      "fiber_criticals", "base_affine",
                                      "fiber"])
    def test_removed_parameters_rejected(self, name):
        with pytest.raises(TypeError):
            maps.SkewProduct(**_viana_fields(**{name: None}))

    @pytest.mark.parametrize("d", [2, 16])
    def test_base_matches_the_old_lambdas_bitwise(self, viana, d):
        skew = viana if d == 16 else _contracting_skew(d)
        old_base = lambda t: (d * t) % 1.0
        old_derivative = lambda t: float(d) + 0.0 * t
        ts = np.concatenate([make_generator(5).uniform(0.0, 1.0, 1000),
                             [0.0, 0.5, 1.0 - 2**-53, 1.0 / 3.0, 0.3]])
        for new, old in ((skew.base, old_base),
                         (skew.base_derivative, old_derivative)):
            got, want = new(ts), old(ts)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            for t in ts:
                got, want = new(float(t)), old(float(t))
                assert type(got) is float and got == want
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_fiber_sequence_follows_base_orbit(self, viana):
        seq = fiber_sequence(viana, 0.3)
        orbit = viana.base_orbit(0.3, 9)
        # out-of-order access extends the stored orbit as needed
        for k in (6, 2, 9, 0, 7):
            m = seq.map_at(k)
            assert m.evaluator(0.25) == viana.fiber(orbit[k], 0.25)
            assert m.derivative(0.25) == viana.fiber_dx(orbit[k], 0.25)
        assert seq.thetas(10)[:10] == orbit.tolist()
        assert all(type(t) is float for t in seq.thetas(10))


class TestEstimateModulus:
    def test_logistic_forced_by_derivative_term(self, logistic_seq):
        # |Df(x)-Df(y)| = 8|x-y|, so the true threshold for zeta=0.8 is 0.1
        eps = estimate_modulus(logistic_seq, 0.8)
        assert eps >= 0.09
        assert eps <= 0.11

    def test_huge_zeta_returns_domain_length(self, logistic_seq):
        assert estimate_modulus(logistic_seq, 1e9) == \
            logistic_seq.domain.length

    def test_slope_one_affine_forced_by_value_term(self):
        seq = constant_sequence(identity_map())
        eps = estimate_modulus(seq, 0.05)
        assert eps == pytest.approx(0.05, abs=0.01)

    def test_nonpositive_zeta_rejected(self, logistic_seq):
        with pytest.raises(ValueError):
            estimate_modulus(logistic_seq, 0.0)


class TestCatalogue:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_system("henon")

    def test_families_construct(self):
        for name in maps.family_names():
            assert make_system(name) is not None

    def test_parameter_of_another_family_rejected(self):
        # viana takes a0, not the quadratic family's a
        with pytest.raises(ValueError, match="takes no parameter a$"):
            make_system("viana", a=2.5)

    @pytest.mark.parametrize("family", maps.family_names())
    def test_listed_parameters_are_constructor_keywords(self, family):
        ctor, params = maps.FAMILIES[family]
        signature = inspect.signature(ctor).parameters
        for name in params:
            assert signature[name].kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY), (family, name)
            assert (signature[name].default
                    is not inspect.Parameter.empty), (family, name)

    @pytest.mark.parametrize("family", maps.family_names())
    def test_defaults_are_the_constructors(self, family):
        ctor, _ = maps.FAMILIES[family]
        assert make_system(family).label == ctor().label

    def test_circle_orbit_stays_wrapped(self, viana):
        orbit = viana.base_orbit(0.987654, 50)
        assert np.all((orbit >= 0.0) & (orbit < 1.0))

    def test_quadratic_needs_valid_parameter(self):
        with pytest.raises(ValueError):
            quadratic_map(0.5)

    def test_viana_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            viana_skew(a0=1.9, alpha=0.3)


class TestWrap:
    """maps.wrap is np.remainder(x, 1.0) on arrays and x % 1.0 on floats."""

    @staticmethod
    def _edges():
        one_minus = float(np.nextafter(1.0, 0.0))
        big = 2.0**52 + 0.5
        return np.array([-0.0, 0.0, 1e-300, -1e-300,
                         *map(float, range(-20, 21)),
                         one_minus, -one_minus, big, -big, 1e17, -1e17])

    def test_arrays_match_remainder_bitwise(self):
        xs = np.concatenate([make_generator(61).uniform(-5.0, 20.0, 10**6),
                             self._edges()])
        got, want = maps.wrap(xs), np.remainder(xs, 1.0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        block = xs[:10**4].reshape(100, 100)
        assert (maps.wrap(block).tobytes()
                == np.remainder(block, 1.0).tobytes())

    def test_floats_match_python_mod_bitwise(self):
        xs = np.concatenate([make_generator(62).uniform(-5.0, 20.0, 10**4),
                             self._edges()])
        for x in xs.tolist():
            got = maps.wrap(x)
            assert type(got) is float
            assert _bits(got) == _bits(x % 1.0), x

    def test_infinities_give_nan(self):
        infs = np.array([np.inf, -np.inf])
        # both flag the invalid operation, as numpy does for inf mod 1
        with np.errstate(invalid="ignore"):
            assert np.isnan(maps.wrap(infs)).all()
            assert np.isnan(np.remainder(infs, 1.0)).all()
        with pytest.warns(RuntimeWarning, match="invalid value"):
            maps.wrap(infs)
        for x in (math.inf, -math.inf):
            got = maps.wrap(x)
            assert type(got) is float and math.isnan(got)

    def test_base_wraps_once(self, viana):
        # d * theta >= 0 on [0, 1): the one wrap already lands in [0, 1)
        th = np.concatenate([make_generator(63).uniform(0.0, 1.0, 10**4),
                             [0.0, float(np.nextafter(1.0, 0.0))]])
        once = viana.base(th)
        assert once.min() >= 0.0 and once.max() < 1.0
        assert np.remainder(once, 1.0).tobytes() == once.tobytes()


class TestLogAbs:
    """maps.log_abs: np.log of |d|, -inf at critical sizes, no warning."""

    TINY = float(np.nextafter(1e-300, 1.0))
    CASES = [(0.0, -math.inf), (-0.0, -math.inf), (1e-300, -math.inf),
             (-1e-300, -math.inf), (1e-301, -math.inf), (5e-324, -math.inf),
             (math.inf, math.inf), (-math.inf, math.inf),
             (TINY, float(np.log(TINY))), (-2.5, float(np.log(2.5))),
             (4.0, float(np.log(4.0))), (0.3, float(np.log(0.3)))]

    def test_values_in_every_shape(self):
        ins, want = (np.array(v) for v in zip(*self.CASES))
        assert maps.CRITICAL_DERIVATIVE == 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, w in zip(ins.tolist(), want.tolist()):
                got = maps.log_abs(x)
                assert type(got) is np.ndarray and got.shape == ()
                assert _bits(float(got)) == _bits(w), x
            got = maps.log_abs(ins)
            assert got.tobytes() == want.tobytes()
            got = maps.log_abs(np.tile(ins, (3, 1)))
            assert got.tobytes() == np.tile(want, (3, 1)).tobytes()
            assert np.isnan(maps.log_abs(math.nan))
            assert np.isnan(maps.log_abs([1.0, math.nan])).tolist() == [
                False, True]

    def test_input_untouched_and_ints_taken(self):
        d = np.array([0.0, -2.0, 3.0])
        out = maps.log_abs(d)
        assert out is not d and d.tolist() == [0.0, -2.0, 3.0]
        assert maps.log_abs(np.array([2, 0])).tolist() == [
            float(np.log(2.0)), -math.inf]


def _derive_twowell_connector():
    """The connector and its first three derivatives in s, lowest degree
    first: the C^3 Hermite join of the two wells by one linear solve, plus
    the bump (s(1-s))^4 (a + b s + c s^2) through three targets by
    another."""
    from numpy.polynomial import polynomial as P

    lo, hi, gap = maps._WELL_LO, maps._WELL_HI, maps._GAP
    d2 = gap ** 2 * 8.0 / lo    # well second derivative rescaled to s
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
    b = np.array([lo, 4.0 * gap, d2, 0.0, hi, 4.0 * gap, -d2, 0.0])
    hermite = np.linalg.solve(A, b)
    # targets tuned so that every diagonal crossing is repelling
    targets = [(0.35, 0.20), (0.50, 0.17), (0.65, 0.28)]
    M = np.array([[(s * (1 - s)) ** 4 * s ** k for k in range(3)]
                  for s, _ in targets])
    rhs = np.array([t - P.polyval(s, hermite) for s, t in targets])
    abc = np.linalg.solve(M, rhs)
    bump = P.polymul(P.polypow(P.polymul([0.0, 1.0], [1.0, -1.0]), 4), abc)
    total = P.polyadd(hermite, bump)
    return tuple(P.polyder(total, m) if m else total for m in range(4))


def test_connector_literals_equal_their_derivation():
    derived = _derive_twowell_connector()
    assert len(maps._TW_CONNECTOR) == len(derived) == 4
    for order, (stored, coeffs) in enumerate(zip(maps._TW_CONNECTOR,
                                                 derived)):
        assert all(type(c) is float for c in stored), order
        assert ([c.hex() for c in stored]
                == [float(c).hex() for c in coeffs[::-1]]), order


def _polyval_twowell():
    """The two-well value and derivatives through P.polyval and np.clip,
    on the connector derived by linear solves.

    This is the evaluator as first written; the catalogue map runs Horner's
    rule inline on the stored literals and must agree with it bit for bit.
    """
    from numpy.polynomial import polynomial as P

    lo, hi, gap = maps._WELL_LO, maps._WELL_HI, maps._GAP
    w = lo
    connector = _derive_twowell_connector()

    def piecewise(x, left, order):
        x = np.asarray(x, dtype=float)
        s = np.clip((x - lo) / gap, 0.0, 1.0)
        y_mid = P.polyval(s, connector[order]) / gap ** order
        t_r = np.clip(x, hi, 1.0) - hi
        if order == 0:
            y_r = hi + 4.0 * t_r * (w - t_r) / w
        elif order == 1:
            y_r = 4.0 * (1.0 - 2.0 * t_r / w)
        elif order == 2:
            y_r = -8.0 / w + 0.0 * t_r
        else:
            y_r = 0.0 * t_r
        out = np.where(x < lo, left(np.clip(x, 0.0, w)),
                       np.where(x > hi, y_r, y_mid))
        return out if out.ndim else float(out)

    # the left well squares by a product, as the catalogue map does, so that
    # scalars and arrays agree
    return (lambda x: piecewise(x, lambda t: w * ((1.0 - 2.0 * t / w)
                                                  * (1.0 - 2.0 * t / w)), 0),
            lambda x: piecewise(x, lambda t: -4.0 * (1.0 - 2.0 * t / w), 1),
            lambda x: piecewise(x, lambda t: 8.0 / w + 0.0 * t, 2),
            lambda x: piecewise(x, lambda t: 0.0 * t, 3))


def _twowell_probe_points():
    """Junctions and two float steps either side, the ends and the well
    centres."""
    pts = [0.0, 1.0, 0.225, 0.775]
    for junction in (0.45, 0.55):
        lo, hi = np.nextafter(junction, 0.0), np.nextafter(junction, 1.0)
        pts += [np.nextafter(lo, 0.0), lo, junction, hi,
                np.nextafter(hi, 1.0)]
    return np.array(pts)


class TestTwoWellEvaluator:
    @pytest.fixture(scope="class")
    def pairs(self, twowell):
        new = (twowell.evaluator, twowell.derivative, twowell.second,
               twowell.third)
        return list(zip(new, _polyval_twowell()))

    def test_arrays_match_polyval_bitwise(self, pairs):
        xs = np.concatenate([make_generator(41).uniform(0.0, 1.0, 10**5),
                             np.linspace(0.0, 1.0, 4097),
                             _twowell_probe_points()])
        for fn, ref in pairs:
            got, want = fn(xs), ref(xs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_scalars_match_polyval_bitwise(self, pairs):
        xs = np.concatenate([make_generator(43).uniform(0.0, 1.0, 1000),
                             make_generator(44).uniform(0.44, 0.56, 500),
                             _twowell_probe_points()])
        for fn, ref in pairs:
            for x in xs:
                for arg in (float(x), x):
                    got, want = fn(arg), ref(arg)
                    assert type(got) is float
                    assert (np.float64(got).tobytes()
                            == np.float64(want).tobytes()), (x, got, want)

    def test_array_shapes_and_pieces_match_polyval_bitwise(self, pairs):
        rng = make_generator(45)
        wells = np.concatenate([rng.uniform(0.0, 0.45, 500),
                                rng.uniform(0.55, 1.0, 500), [0.0, 1.0]])
        wells = wells[(wells < 0.45) | (wells > 0.55)]
        gap = np.concatenate([rng.uniform(0.45, 0.55, 500), [0.45, 0.55]])
        cases = {
            "wells only": wells,
            "gap only": gap,
            "empty": np.empty(0),
            "probe points": _twowell_probe_points(),
            "2-d block": rng.uniform(0.0, 1.0, (7, 300)),
            "2-d gap block": gap[:500].reshape(5, 100),
        }
        for fn, ref in pairs:
            for name, xs in cases.items():
                got, want = fn(xs), ref(xs)
                assert type(got) is np.ndarray, name
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape == xs.shape, name
                assert got.tobytes() == want.tobytes(), name

    def test_connector_runs_only_on_gap_points(self, twowell, monkeypatch):
        class Counting:
            def __init__(self, coeffs):
                self.coeffs, self.calls = coeffs, 0

            def __getitem__(self, order):
                self.calls += 1
                return self.coeffs[order]

        counting = Counting(maps._TW_CONNECTOR)
        monkeypatch.setattr(maps, "_TW_CONNECTOR", counting)
        rng = make_generator(46)
        wells = np.concatenate([rng.uniform(0.0, 0.44, 50),
                                rng.uniform(0.56, 1.0, 50)])
        fns = (twowell.evaluator, twowell.derivative, twowell.second,
               twowell.third)
        for fn in fns:
            fn(wells)
            fn(wells.reshape(4, 25))
            fn(np.empty(0))
            fn(0.3)
            fn(0.7)
        assert counting.calls == 0
        for fn in fns:
            fn(np.append(wells, 0.5))
            fn(0.5)
        assert counting.calls == 2 * len(fns)


def _bits(v):
    return np.float64(v).tobytes()


class TestScalarsMatchArrays:
    """Every catalogue callable gives the same bits on a scalar as on an
    array, so scalar and array loops over one map can be compared exactly.
    """

    @staticmethod
    def _grid(dom, marks, rng_seed):
        """20,000 uniform points, then each mark and its float neighbours."""
        xs = make_generator(rng_seed).uniform(dom.lo, dom.hi, 20000).tolist()
        for p in (dom.lo, dom.hi, *marks):
            xs += [p, float(np.nextafter(p, -np.inf)),
                   float(np.nextafter(p, np.inf))]
        return np.array([x for x in xs if dom.lo <= x <= dom.hi])

    @pytest.mark.parametrize("family", maps.family_names())
    def test_evaluator_and_derivative(self, family):
        system = make_system(family)
        if isinstance(system, maps.SkewProduct):
            dom = system.fiber_domain
            xs = self._grid(dom, (*system.fiber_critical_points, 0.45, 0.55),
                            89)
            th = make_generator(97).uniform(0.0, 1.0, xs.size)
            th[:4] = (0.0, 0.25, 0.5, 0.75)
            fns = (system.fiber, system.fiber_dx, system.fiber_dtheta)
            args = list(zip(th.tolist(), xs.tolist()))
            arrays = (th, xs)
        else:
            xs = self._grid(system.domain,
                            (*system.critical_points, 0.45, 0.55), 89)
            fns = tuple(fn for fn in (system.evaluator, system.derivative,
                                      system.second, system.third)
                        if fn is not None)
            args = [(x,) for x in xs.tolist()]
            arrays = (xs,)
        for fn in fns:
            want = np.broadcast_to(fn(*arrays), xs.shape)
            got = [fn(*a) for a in args]
            bad = [a for a, g, w in zip(args, got, want)
                   if _bits(g) != _bits(w)]
            assert not bad, (family, fn, len(bad), bad[:3])
