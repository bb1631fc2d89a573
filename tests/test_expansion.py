import math

import numpy as np
import pytest

from fiberdyn import (DegenerateDifferential, EmptySample, HitCritical,
                      IntervalDomain, IntervalMap, SkewProduct, branch_stats,
                      classify_point, constant_sequence, doubling_map,
                      estimate_f2, fiber_branch_stats, fiber_sequence,
                      ftle_fiber, ftle_full, make_system, measure_AY_decay,
                      smallest_singular_value, visit_frequency)
from fiberdyn import expansion
from fiberdyn.rng import make_generator


class TestFtleFiber:
    def test_logistic_exponent(self, logistic_seq):
        # conjugacy to the tent map gives exponent log 2 exactly
        for seed in (1, 2, 3):
            x0 = float(make_generator(seed).uniform(0, 1))
            val = ftle_fiber(logistic_seq, x0, 10**6)
            assert val == pytest.approx(math.log(2.0), abs=0.01)

    def test_constant_slope_exact(self):
        seq = constant_sequence(doubling_map())
        assert ftle_fiber(seq, 0.1237, 1000) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_critical_start_raises(self, logistic_seq):
        with pytest.raises(HitCritical):
            ftle_fiber(logistic_seq, 0.5, 10)

    def test_needs_positive_length(self, logistic_seq):
        with pytest.raises(ValueError):
            ftle_fiber(logistic_seq, 0.3, 0)

    def test_chain_rule_weighted_average(self, viana):
        seq = fiber_sequence(viana, 0.3)
        x = 0.2
        n1, n2 = 37, 63
        total = ftle_fiber(seq, x, n1 + n2)
        first = ftle_fiber(seq, x, n1)
        mid = float(seq.compose(x, n1))
        second = ftle_fiber(seq.shifted(n1), mid, n2)
        recombined = (n1 * first + n2 * second) / (n1 + n2)
        assert total == pytest.approx(recombined, abs=1e-12)

    def test_fast_and_generic_paths_agree(self, logistic):
        seq_fast = constant_sequence(logistic)
        seq_slow = constant_sequence(logistic)
        seq_slow.constant = False   # forces the per-step path
        chunk = expansion._ORBIT_CHUNK
        for n in (1, 5000, chunk - 1, chunk, chunk + 1, 3 * chunk + 17):
            a = ftle_fiber(seq_fast, 0.3217, n)
            b = ftle_fiber(seq_slow, 0.3217, n)
            assert a == pytest.approx(b, abs=1e-12), n
        steps = []
        for seq in (seq_fast, seq_slow):
            with pytest.raises(HitCritical) as exc:
                ftle_fiber(seq, 0.5, 10)
            steps.append(exc.value.step)
        assert steps == [0, 0]

    def test_hit_critical_step_across_chunks(self):
        # x -> x + h walks onto the critical point 0.75 of the (fake)
        # derivative after exactly `steps` steps, in exact dyadic arithmetic
        h = 2.0 ** -20
        m = IntervalMap(IntervalDomain(0.0, 1.0),
                        evaluator=lambda x: np.minimum(x + h, 1.0),
                        derivative=lambda x: (x - 0.75) ** 2,
                        critical_points=(0.75,))
        seq_fast = constant_sequence(m)
        seq_slow = constant_sequence(m)
        seq_slow.constant = False
        chunk = expansion._ORBIT_CHUNK
        for steps in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
            for seq in (seq_fast, seq_slow):
                with pytest.raises(HitCritical) as exc:
                    ftle_fiber(seq, 0.75 - steps * h, 3 * chunk)
                assert exc.value.step == steps


def _sweep_min_singular(M, coarse=10**4):
    """Two-stage angular sweep minimization of |M v| over unit vectors."""
    best_t, best = 0.0, math.inf
    ts = np.linspace(0.0, math.pi, coarse, endpoint=False)
    for stage in range(2):
        vx, vy = np.cos(ts), np.sin(ts)
        norms = np.hypot(M[0, 0] * vx + M[0, 1] * vy,
                         M[1, 0] * vx + M[1, 1] * vy)
        i = int(np.argmin(norms))
        if norms[i] < best:
            best, best_t = float(norms[i]), float(ts[i])
        width = (ts[1] - ts[0])
        ts = np.linspace(best_t - width, best_t + width, coarse)
    return best


class TestSingularValue:
    def test_closed_form_matches_sweep(self):
        rng = make_generator(99)
        for _ in range(1000):
            gp, ft, fx = rng.normal(0.0, 2.0, 3)
            if abs(gp) < 1e-3:
                continue
            m = smallest_singular_value(float(gp), float(ft), float(fx))
            M = np.array([[gp, 0.0], [ft, fx]])
            assert m == pytest.approx(_sweep_min_singular(M), abs=1e-8)

    def test_diagonal_case(self):
        assert smallest_singular_value(16.0, 0.0, 0.5) == pytest.approx(0.5)


def _linear_fiber_skew():
    # f(theta, x) = x/2 + 0.1 sin(2 pi theta) on a domain absorbing the drive
    dom = IntervalDomain(-0.5, 0.5)
    return SkewProduct(
        base_degree=16,
        base=lambda t: (16.0 * t) % 1.0,
        base_derivative=lambda t: 16.0 + 0.0 * t,
        fiber=lambda t, x: 0.5 * x + 0.1 * np.sin(2 * np.pi * t),
        fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
        fiber_dtheta=lambda t, x: 0.2 * np.pi * np.cos(2 * np.pi * t)
                                  + 0.0 * x,
        fiber_criticals=lambda t: (),
        fiber_domain=dom,
        base_affine=True,
        label="linear-fiber",
    )


class TestFtleFull:
    def test_diagonal_skew_exact(self):
        dom = IntervalDomain(-0.5, 0.5)
        skew = SkewProduct(
            base_degree=16,
            base=lambda t: (16.0 * t) % 1.0,
            base_derivative=lambda t: 16.0 + 0.0 * t,
            fiber=lambda t, x: 0.5 * x + 0.0 * t,
            fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
            fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
            fiber_criticals=lambda t: (),
            fiber_domain=dom,
            base_affine=True,
        )
        val = ftle_full(skew, (0.3, 0.2), 500)
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_dense_svd_oracle(self):
        skew = _linear_fiber_skew()
        theta, x = 0.37, 0.1
        n = 200
        total = 0.0
        t, y = theta, x
        for _ in range(n):
            M = np.array([[16.0, 0.0],
                          [float(skew.fiber_dtheta(t, y)), 0.5]])
            total += math.log(np.linalg.svd(M, compute_uv=False)[-1])
            t, y = (16.0 * t) % 1.0, float(skew.fiber(t, y))
        assert ftle_full(skew, (theta, x), n) == pytest.approx(
            total / n, abs=1e-10)

    def test_full_bounded_by_fiber(self, viana):
        # the x-column norm |d_x f| bounds the co-norm from above
        rng = make_generator(17)
        for _ in range(10):
            theta = float(rng.uniform(0, 1))
            x = float(rng.uniform(-1.5, 1.5))
            full = ftle_full(viana, (theta, x), 60)
            fib = ftle_fiber(fiber_sequence(viana, theta), x, 60)
            assert full <= fib + 1e-12

    def test_zero_length_rejected(self, viana):
        with pytest.raises(ValueError):
            ftle_full(viana, (0.1, 0.2), 0)

    def test_degenerate_column(self, viana):
        with pytest.raises(DegenerateDifferential):
            ftle_full(viana, (0.25, 0.0), 1)


class TestVisitFrequency:
    def test_no_critical_points(self):
        seq = constant_sequence(doubling_map())
        assert visit_frequency(seq, 0.3, 100, 0.05) == 0.0

    def test_huge_radius(self, logistic_seq):
        assert visit_frequency(logistic_seq, 0.3, 50, 2.0) == 1.0

    def test_matches_invariant_density_mass(self, logistic_seq):
        # Birkhoff frequency of |x - 1/2| < 0.05 equals the invariant mass
        # of (0.45, 0.55): (2/pi) (asin sqrt(0.55) - asin sqrt(0.45))
        expected = (2.0 / math.pi) * (math.asin(math.sqrt(0.55))
                                      - math.asin(math.sqrt(0.45)))
        freq = visit_frequency(logistic_seq, 0.123456, 10**5, 0.05)
        assert freq == pytest.approx(expected, abs=0.005)

    def test_eps_positive(self, logistic_seq):
        with pytest.raises(ValueError):
            visit_frequency(logistic_seq, 0.3, 10, 0.0)


class TestDecayTable:
    def test_huge_delta_reduces_to_expansion_set(self, logistic):
        # delta^2 > |I0| makes the mean-size constraint vacuous
        table = measure_AY_decay(logistic, [10, 20], 2.0, 0.3, 2000, 21)
        r, logd, _ = branch_stats(
            logistic, make_generator(21).uniform(0, 1, 2000), 20)
        for n in (10, 20):
            y_frac = float(((np.cumsum(logd, 0)[n - 1] / n > 0.3)
                            & (r[n - 1] > 0)).mean())
            assert table.fractions(2.0)[n] == pytest.approx(y_frac, abs=0)

    def test_unreachable_rate_empties_the_set(self, logistic):
        # lambda = 10 exceeds log sup |Df| = log 4
        table = measure_AY_decay(logistic, [5, 15], 0.1, 10.0, 1500, 5)
        assert all(row[1] == 0.0 for row in table.rows)

    def test_seed_determinism(self, logistic):
        t1 = measure_AY_decay(logistic, [10], [0.05, 0.1], 0.3, 1200, 3)
        t2 = measure_AY_decay(logistic, [10], [0.05, 0.1], 0.3, 1200, 3)
        assert t1.rows == t2.rows

    def test_fixed_seed_regression_values(self, logistic):
        # frozen fractions for one seeded run (counter-based generator
        # keyed by the seed, stable across releases)
        table = measure_AY_decay(logistic, [10, 20], [0.05, 0.2], 0.3,
                                 1200, 3)
        fracs = {(row[0], row[4]): row[1] for row in table.rows}
        assert fracs[(10, 0.05)] == pytest.approx(0.0008333333333333334,
                                                  abs=0)
        assert fracs[(10, 0.2)] == pytest.approx(0.0025, abs=0)
        assert fracs[(20, 0.05)] == 0.0
        assert fracs[(20, 0.2)] == 0.0

    def test_sample_floor(self, logistic):
        with pytest.raises(ValueError):
            measure_AY_decay(logistic, [10], 0.1, 0.3, 10, 1)

    @pytest.mark.parametrize("family", ["logistic", "viana"])
    def test_running_sums_match_cumsum(self, family):
        """Every row equals the one built from full np.cumsum arrays."""
        system = make_system(family)
        n_list, deltas, lam = [1, 7, 7, 30, 31], [0.05, 0.2, 0.6], 0.1
        table = measure_AY_decay(system, n_list, deltas, lam, 1000, 8)
        cloud = system.sample(make_generator(8), 1000)
        r, logd, _ = expansion._cloud_branch_stats(system, cloud, 31)
        csum_r, csum_l = np.cumsum(r, axis=0), np.cumsum(logd, axis=0)
        rows = [float((((csum_r[n - 1] / n < d * d) & (r[n - 1] > 0))
                       & (csum_l[n - 1] / n > lam)).mean())
                for n in n_list for d in deltas]
        assert [row[1] for row in table.rows] == rows
        assert [(row[0], row[4]) for row in table.rows] == [
            (n, d) for n in n_list for d in deltas]

    def test_skew_sampling_runs(self, viana):
        table = measure_AY_decay(viana, [10], 0.1, 0.1, 1000, 4)
        assert len(table.rows) == 1
        assert table.domain_length == viana.fiber_domain.length

    def test_non_constant_sequence_rejected(self, viana):
        with pytest.raises(ValueError, match="constant sequence"):
            measure_AY_decay(fiber_sequence(viana, 0.3), [10], 0.1, 0.3,
                             1000, 4)


class TestFiberBranchStats:
    def test_matches_scalar_tracking(self, viana):
        rng = make_generator(31)
        th = rng.uniform(0, 1, 40)
        xs = rng.uniform(-1.5, 1.5, 40)
        r, _, alive = fiber_branch_stats(viana, th, xs, 12)
        from fiberdyn import track_branch
        for i in range(40):
            if not alive[i]:
                continue
            seq = fiber_sequence(viana, float(th[i]))
            br = track_branch(seq, float(xs[i]), 12)
            assert np.allclose(r[:, i], br.r_history, atol=1e-12)


class TestEstimateF2:
    def test_finite_and_seed_stable(self, viana):
        vals = [estimate_f2(viana, 1500, seed) for seed in range(5)]
        assert all(math.isfinite(v) for v in vals)
        assert max(vals) - min(vals) <= 0.1 * max(vals)
        # quadratic fibers: |log|2x| - log|2x'|| * |x| / |x - x'| <= 2 log 2
        # at the admissibility edge
        assert max(vals) <= 2.0 * math.log(2.0) + 0.05

    def test_no_pairs_raises(self, viana):
        with pytest.raises(EmptySample):
            estimate_f2(viana, 1000, 1, pairs_per_sample=0)

    def test_critical_free_fiber_finite(self):
        # empty critical set: vertical distance defaults to 1 and the
        # log-derivative is smooth, so the estimate is a finite sup
        skew = _linear_fiber_skew()
        val = estimate_f2(skew, 1500, 2)
        assert math.isfinite(val)

    def test_sample_floor(self, viana):
        with pytest.raises(ValueError):
            estimate_f2(viana, 10, 1)


class TestClassifyPoint:
    def test_membership_flags_consistent(self, logistic):
        rec = classify_point(logistic, 0.3, 40, lam=0.3, delta=0.1,
                             eps=0.05)
        assert rec.in_A == (rec.r_mean < 0.01 and rec.r_last > 0)
        assert rec.in_Y == (rec.ftle > 0.3)
        assert rec.in_Z is None
        assert 0.0 <= rec.visit_freq <= 1.0

    def test_skew_point_gets_z_flag(self, viana):
        rec = classify_point(viana, (0.3, 0.2), 30, lam=0.1, delta=0.1)
        assert rec.in_Z in (True, False)
        assert rec.r_mean >= 0.0
