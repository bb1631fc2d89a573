import math

import numpy as np
import pytest

from fiberdyn import (DerivativeVanishes, IntervalDomain, IntervalMap,
                      MissingDerivative, constant_sequence, estimate_modulus,
                      fiber_sequence, find_critical_points, identity_map,
                      make_system, maps, moebius_map, quadratic_map,
                      schwarzian, twowell_map, verify_partial_hyperbolicity,
                      viana_skew)
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
        seq = fiber_sequence(viana, 0.123)
        a = seq.map_at(5)
        b = seq.map_at(5)
        assert a is b

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


class TestSystemProtocol:
    """sample / step / sequence on maps, sequences and skew-products."""

    def test_interval_map(self, logistic):
        xs = logistic.sample(make_generator(4), 5)
        ref = make_generator(4).uniform(0.0, 1.0, 5)
        assert np.array_equal(xs, ref)
        assert np.array_equal(logistic.step(xs, 7), 4.0 * xs * (1.0 - xs))
        seq = logistic.sequence(0.3)
        assert seq.constant and seq.map_at(9) is logistic

    def test_map_sequence_steps_its_jth_map(self, viana):
        seq = fiber_sequence(viana, 0.3)
        xs = seq.sample(make_generator(4), 5)
        assert xs.min() >= seq.domain.lo and xs.max() <= seq.domain.hi
        assert np.array_equal(seq.step(xs, 2), seq.map_at(2).evaluator(xs))
        assert seq.sequence(0.7) is seq

    def test_skew_product(self, viana):
        th, xs = viana.sample(make_generator(4), 5)
        rng = make_generator(4)
        dom = viana.fiber_domain
        assert np.array_equal(th, rng.uniform(0.0, 1.0, 5))
        assert np.array_equal(xs, rng.uniform(dom.lo, dom.hi, 5))
        th1, xs1 = viana.step((th, xs), 0)
        assert np.array_equal(th1, (16.0 * th) % 1.0)
        assert np.array_equal(xs1, viana.fiber(th, xs))
        seq = viana.sequence(0.3)
        assert not seq.constant
        assert seq.map_at(1).evaluator(0.0) == viana.fiber(
            viana.base(0.3), 0.0)

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

    def __init__(self, base_degree, base, base_derivative, fiber, fiber_dx,
                 fiber_domain):
        self.base_degree = base_degree
        self.base = base
        self.base_derivative = base_derivative
        self.fiber = fiber
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

    def test_constant_fiber_ratio_zero(self):
        bare = _BareSkew(16, lambda t: (16 * t) % 1.0,
                         lambda t: 16.0 + 0.0 * t,
                         lambda t, x: 0.3 + 0.0 * x + 0.0 * t,
                         lambda t, x: 0.0 * x + 0.0 * t,
                         IntervalDomain(0.0, 1.0))
        rep = verify_partial_hyperbolicity(bare, n_max=6, grid=16)
        assert rep.decays
        assert all(r == 0.0 for r in rep.max_ratio)

    def test_tent_fiber_no_domination(self):
        # slope-2 tent fiber over a degree-2 base: ratio 1 at every n
        bare = _BareSkew(2, lambda t: (2 * t) % 1.0,
                         lambda t: 2.0 + 0.0 * t,
                         lambda t, x: 1.0 - np.abs(2.0 * x - 1.0) + 0.0 * t,
                         lambda t, x: np.where(x < 0.5, 2.0, -2.0) + 0.0 * t,
                         IntervalDomain(0.0, 1.0))
        rep = verify_partial_hyperbolicity(bare, n_max=6, grid=17)
        assert not rep.decays
        assert rep.max_ratio[0] == pytest.approx(1.0)

    def test_undominated_construction_rejected(self):
        with pytest.raises(ValueError, match="domination"):
            maps.SkewProduct(
                base_degree=2,
                base=lambda t: (2 * t) % 1.0,
                base_derivative=lambda t: 2.0 + 0.0 * t,
                fiber=lambda t, x: 4.0 * x * (1.0 - x) + 0.0 * t,
                fiber_dx=lambda t, x: 4.0 - 8.0 * x + 0.0 * t,
                fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
                fiber_criticals=lambda t: (0.5,),
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

    def test_circle_orbit_stays_wrapped(self, viana):
        orbit = viana.base_orbit(0.987654, 50)
        assert np.all((orbit >= 0.0) & (orbit < 1.0))

    def test_quadratic_needs_valid_parameter(self):
        with pytest.raises(ValueError):
            quadratic_map(0.5)

    def test_viana_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            viana_skew(a0=1.9, alpha=0.3)


def _polyval_twowell():
    """The two-well value and derivatives through P.polyval and np.clip.

    This is the evaluator as first written; the catalogue map runs Horner's
    rule inline and must agree with it bit for bit.
    """
    from numpy.polynomial import polynomial as P

    lo, hi, gap = maps._WELL_LO, maps._WELL_HI, maps._GAP
    w = lo
    connector = maps._twowell_connector_coeffs()

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

    return (lambda x: piecewise(x, lambda t: w * (1.0 - 2.0 * t / w) ** 2, 0),
            lambda x: piecewise(x, lambda t: -4.0 * (1.0 - 2.0 * t / w), 1),
            lambda x: piecewise(x, lambda t: 8.0 / w + 0.0 * t, 2),
            lambda x: piecewise(x, lambda t: 0.0 * t, 3))


def _twowell_probe_points():
    """Junctions, their float neighbours, the ends and the well centres."""
    pts = [0.0, 1.0, 0.225, 0.775]
    for junction in (0.45, 0.55):
        pts += [junction, np.nextafter(junction, 0.0),
                np.nextafter(junction, 1.0)]
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
