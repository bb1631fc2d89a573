import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from fiberdyn import (DegenerateDifferential, EmptySample, HitCritical,
                      IntervalDomain, IntervalMap, SkewProduct, branch_stats,
                      constant_sequence, doubling_map, estimate_f2,
                      fiber_branch_stats, fiber_sequence, ftle_fiber,
                      ftle_full, logistic_map, make_system, measure_AY_decay,
                      moebius_map, quadratic_map, smallest_singular_value,
                      twowell_map, viana_skew)
from fiberdyn import expansion, maps, markov
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

    def test_orbit_absorbed_at_zero_reads_log_4(self, logistic_seq):
        # known defect, pinned: a float orbit within 1.5e-9 of 1/2 maps to
        # exactly 1.0 and then to the fixed point 0.0, where |f'| = 4.  No
        # step hits the critical point within 1e-300, so nothing is raised
        # and the exponent reads about log 4 over the absorbed steps, not
        # log 2.  The default 20-sample logistic ftle meets such an orbit
        # now and then (two samples near 0.9 at one seed).
        x = 0.5000000014530704
        m = logistic_seq.map_at(0)
        assert float(m.evaluator(x)) == 1.0
        assert float(m.evaluator(1.0)) == 0.0 == float(m.evaluator(0.0))
        val = ftle_fiber(logistic_seq, x, 1000)
        assert val == pytest.approx(1.37, abs=0.01)
        assert abs(val - math.log(2.0)) > 0.6

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
        # the next n2 steps: f_{n1}, f_{n1+1}, ... of the same sequence
        y, second = mid, 0.0
        for j in range(n1, n1 + n2):
            m = seq.map_at(j)
            second += math.log(abs(float(m.derivative(y)))) / n2
            y = float(m.evaluator(y))
        recombined = (n1 * first + n2 * second) / (n1 + n2)
        assert total == pytest.approx(recombined, abs=1e-12)

    def test_fast_and_generic_paths_agree(self):
        # the chunked kernel against the per-step loop it replaced, on a
        # constant sequence and on a fiber sequence
        chunk = expansion._ORBIT_CHUNK
        for seq, x_crit in ((constant_sequence(logistic_map()), 0.5),
                            (fiber_sequence(viana_skew(), 0.3), 0.0)):
            for n in (1, 5000, chunk - 1, chunk, chunk + 1, 3 * chunk + 17):
                a = ftle_fiber(seq, 0.3217, n)
                b = _per_step_ftle(seq, 0.3217, n)
                assert a == pytest.approx(b, abs=1e-12), n
            steps = []
            for fn in (ftle_fiber, _per_step_ftle):
                with pytest.raises(HitCritical) as exc:
                    fn(seq, x_crit, 10)
                steps.append(exc.value.step)
            assert steps == [0, 0]

    def test_hit_critical_step_across_chunks(self):
        # x -> x + h walks onto the critical point 0.75 of the (fake)
        # derivative after exactly `steps` steps, in exact dyadic arithmetic;
        # once as one map, once as the fibers of a skew-product
        h = 2.0 ** -20
        m = IntervalMap(IntervalDomain(0.0, 1.0),
                        evaluator=lambda x: np.minimum(x + h, 1.0),
                        derivative=lambda x: (x - 0.75) ** 2,
                        critical_points=(0.75,))
        skew = SkewProduct(base_degree=2,
                           fiber_coefficient=lambda t: 0.0 * t,
                           fiber_step=lambda c, x: np.minimum(x + h, 1.0) + c,
                           fiber_dx=lambda t, x: (x - 0.75) ** 2 + 0.0 * t,
                           fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
                           fiber_domain=IntervalDomain(0.0, 1.0),
                           fiber_critical_points=(0.75,))
        chunk = expansion._ORBIT_CHUNK
        for seq in (constant_sequence(m), fiber_sequence(skew, 0.3)):
            for steps in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
                for fn in (ftle_fiber, _per_step_ftle):
                    with pytest.raises(HitCritical) as exc:
                        fn(seq, 0.75 - steps * h, 3 * chunk)
                    assert exc.value.step == steps, fn


class TestOneLogRule:
    """Every orbit kernel gives one orbit the same log-sum, bit for bit.

    markov._walk and the running sum of branch_stats' logd give the sum of
    log |f'| over the first n steps, ftle_fiber its mean.  Sums of one to
    three terms show a one-ulp change in a single term.
    """

    NS = (1, 2, 3, 50)

    @staticmethod
    def _branch_sums(logd):
        # left to right along the steps; a lane's sum is -inf from the
        # step on which it dies
        return np.add.accumulate(logd, axis=0)

    @pytest.mark.parametrize("make", [logistic_map, lambda: quadratic_map(1.8),
                                      moebius_map, twowell_map])
    def test_interval_kernels_agree(self, make):
        m = make()
        xs = make_generator(24).uniform(m.domain.lo, m.domain.hi, 1000)
        _, logd, _ = branch_stats(m, xs, max(self.NS))
        sums = self._branch_sums(logd)
        seq = constant_sequence(m)
        for n in self.NS:
            walked, _ = markov._walk(m, xs, n)
            alive = logd[n - 1] > -np.inf
            assert alive.mean() > 0.5, n
            assert walked[alive].tobytes() == sums[n - 1][alive].tobytes(), n
            assert [ftle_fiber(seq, x, n) for x in xs.tolist()] == (
                walked / n).tolist(), n

    def test_viana_fiber_kernels_agree(self, viana):
        rng = make_generator(25)
        dom = viana.fiber_domain
        thetas = rng.uniform(0.0, 1.0, 200)
        xs = rng.uniform(dom.lo, dom.hi, 200)
        _, logd, _ = fiber_branch_stats(viana, thetas, xs, max(self.NS))
        sums = self._branch_sums(logd)
        for i, (theta, x) in enumerate(zip(thetas.tolist(), xs.tolist())):
            seq = fiber_sequence(viana, theta)
            for n in self.NS:
                if logd[n - 1, i] > -np.inf:
                    assert ftle_fiber(seq, x, n) == sums[n - 1, i] / n, (i, n)


def _per_step_ftle(seq, x, n):
    """ftle_fiber as a per-step loop of map_at, the reference for its kernel."""
    x = float(x)
    s = 0.0
    for j in range(n):
        m = seq.map_at(j)
        d = abs(float(m.derivative(x)))
        if d <= 1e-300:
            raise HitCritical(j)
        s += float(np.log(d))
        x = float(m.evaluator(x))
    return s / n


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

    def test_array_matches_float(self):
        # the array form repeats the float operations elementwise, bit for
        # bit, zero determinants and an all-zero matrix included
        gp, ft, fx = make_generator(98).normal(0.0, 2.0, (3, 1000))
        fx[::7] = 0.0
        gp[:3] = ft[:3] = fx[:3] = 0.0
        out = smallest_singular_value(gp, ft, fx)
        assert isinstance(out, np.ndarray)
        assert type(smallest_singular_value(16.0, 0.25, 0.5)) is float
        assert out.tolist() == [
            smallest_singular_value(a, b, c)
            for a, b, c in zip(gp.tolist(), ft.tolist(), fx.tolist())]


def _linear_fiber_skew():
    # f(theta, x) = x/2 + 0.1 sin(2 pi theta) on a domain absorbing the drive
    dom = IntervalDomain(-0.5, 0.5)
    return SkewProduct(
        base_degree=16,
        fiber_coefficient=lambda t: 0.1 * np.sin(2 * np.pi * t),
        fiber_step=lambda c, x: 0.5 * x + c,
        fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
        fiber_dtheta=lambda t, x: 0.2 * np.pi * np.cos(2 * np.pi * t)
                                  + 0.0 * x,
        fiber_critical_points=(),
        fiber_domain=dom,
        label="linear-fiber",
    )


class TestFtleFull:
    def test_diagonal_skew_exact(self):
        dom = IntervalDomain(-0.5, 0.5)
        skew = SkewProduct(
            base_degree=16,
            fiber_coefficient=lambda t: 0.0 * t,
            fiber_step=lambda c, x: 0.5 * x + c,
            fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
            fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
            fiber_critical_points=(),
            fiber_domain=dom,
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

    @pytest.mark.parametrize("make_skew", [viana_skew, _linear_fiber_skew])
    def test_kernel_matches_per_step_loop(self, make_skew):
        # the chunked kernel against the per-step loop it replaced, bit for
        # bit, at chunk edges; the oracle's prefix sums give every n at once
        skew = make_skew()
        chunk = expansion._ORBIT_CHUNK
        ns = (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)
        rng = make_generator(15)
        dom = skew.fiber_domain
        for theta, x in zip(rng.uniform(0.0, 1.0, 20),
                            rng.uniform(dom.lo, dom.hi, 20)):
            sums = _per_step_ftle_full(skew, (theta, x), max(ns))
            for n in ns:
                assert ftle_full(skew, (theta, x), n) == sums[n - 1] / n, n

    def test_short_sums_match_per_step_loop(self, viana):
        # a long sum absorbs a one-ulp change in one log term (np.log against
        # math.log, say); sums of one to three terms show it
        rng = make_generator(16)
        dom = viana.fiber_domain
        for theta, x in zip(rng.uniform(0.0, 1.0, 1000),
                            rng.uniform(dom.lo, dom.hi, 1000)):
            sums = _per_step_ftle_full(viana, (theta, x), 3)
            for n in (1, 2, 3):
                assert ftle_full(viana, (theta, x), n) == sums[n - 1] / n

    @pytest.mark.parametrize("z, step", [((0.25, 0.0), 0),
                                         # sqrt(1.7)**2 == 1.7, so x_1 = 0.0
                                         ((0.0, math.sqrt(1.7)), 1)])
    def test_degenerate_step_and_message(self, viana, z, step):
        messages = []
        for n in (step + 1, 5000):
            for fn in (ftle_full, _per_step_ftle_full):
                with pytest.raises(DegenerateDifferential) as exc:
                    fn(viana, z, n)
                messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert "x=0.0)" in messages[0]

    def test_degenerate_step_across_chunks(self):
        # x -> x + h walks onto the zero 0.75 of the (fake) d_x f after
        # exactly `steps` steps, in exact dyadic arithmetic
        h = 2.0 ** -20
        skew = SkewProduct(base_degree=2,
                           fiber_coefficient=lambda t: 0.0 * t,
                           fiber_step=lambda c, x: np.minimum(x + h, 1.0) + c,
                           fiber_dx=lambda t, x: (x - 0.75) ** 2 + 0.0 * t,
                           fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
                           fiber_domain=IntervalDomain(0.0, 1.0),
                           fiber_critical_points=(0.75,))
        chunk = expansion._ORBIT_CHUNK
        for steps in (chunk - 1, chunk, 2 * chunk + 5):
            messages = []
            for fn in (ftle_full, _per_step_ftle_full):
                with pytest.raises(DegenerateDifferential) as exc:
                    fn(skew, (0.3, 0.75 - steps * h), 3 * chunk)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]
            assert "x=0.75)" in messages[0]


def _per_step_ftle_full(skew, z, n):
    """ftle_full as the per-step loop of scalar map calls it was, the
    reference for its kernel; returns the n running sums, not the mean."""
    theta, x = float(z[0]) % 1.0, float(z[1])
    s = 0.0
    sums = []
    for _ in range(n):
        gp = float(skew.base_derivative(theta))
        ft = float(skew.fiber_dtheta(theta, x))
        fx = float(skew.fiber_dx(theta, x))
        if abs(fx) <= 1e-300:
            raise DegenerateDifferential(
                f"d_x f = 0 at (theta={theta}, x={x})")
        s += float(np.log(smallest_singular_value(gp, ft, fx)))
        sums.append(s)
        theta, x = skew.base(theta), float(skew.fiber(theta, x))
    return sums


# measure_AY_decay's n_list, deltas, lam, samples and seed
DECAY_CASE = ([1, 7, 8, 30, 31], [0.05, 0.2, 0.6], 0.1, 1000, 8)


def _cumsum_fractions(system, n_list, deltas, lam, samples, seed):
    """measure_AY_decay's fractions from the full (n, samples) arrays of
    branch_stats / fiber_branch_stats and np.cumsum."""
    cloud = system.sample(make_generator(seed), samples)
    n = max(n_list)
    r, logd, _ = (fiber_branch_stats(system, *cloud, n)
                  if isinstance(system, SkewProduct)
                  else branch_stats(system, cloud, n))
    csum_r, csum_l = np.cumsum(r, axis=0), np.cumsum(logd, axis=0)
    return [float((((csum_r[n - 1] / n < d * d) & (r[n - 1] > 0))
                   & (csum_l[n - 1] / n > lam)).mean())
            for n in n_list for d in deltas]


class TestDecayTable:
    def test_huge_delta_reduces_to_expansion_set(self, logistic):
        # delta^2 > |I0| makes the mean-size constraint vacuous
        table = measure_AY_decay(logistic, [10, 20], 2.0, 0.3, 2000, 21)
        r, logd, _ = branch_stats(
            logistic, make_generator(21).uniform(0, 1, 2000), 20)
        for n in (10, 20):
            y_frac = float(((np.cumsum(logd, 0)[n - 1] / n > 0.3)
                            & (r[n - 1] > 0)).mean())
            (frac,) = [row[1] for row in table.rows
                       if row[0] == n and row[4] == 2.0]
            assert frac == y_frac

    def test_unreachable_rate_empties_the_set(self, logistic):
        # lambda = 10 exceeds log sup |Df| = log 4
        table = measure_AY_decay(logistic, [5, 15], 0.1, 10.0, 1500, 5)
        assert all(row[1] == 0.0 for row in table.rows)

    @pytest.mark.parametrize("n_list, deltas", [
        ([10, 20, 10], [0.05, 0.1]),
        ([10, 20], [0.1, 0.05, 0.1]),
    ], ids=["repeated-depth", "repeated-delta"])
    def test_repeated_rows_rejected(self, logistic, n_list, deltas):
        with pytest.raises(ValueError, match="repeat"):
            measure_AY_decay(logistic, n_list, deltas, 0.3, 1000, 3)

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
        table = measure_AY_decay(system, *DECAY_CASE)
        assert [row[1] for row in table.rows] == _cumsum_fractions(
            system, *DECAY_CASE)
        n_list, deltas = DECAY_CASE[:2]
        assert [(row[0], row[4]) for row in table.rows] == [
            (n, d) for n in n_list for d in deltas]

    @pytest.mark.parametrize("family", ["logistic", "viana"])
    def test_rows_per_block_keep_the_fractions(self, monkeypatch, block_rows,
                                               family):
        # 1, 2 and the default rows per block of theta at 1,000 samples
        monkeypatch.setattr(maps, "_BLOCK_POINTS", block_rows * 1000)
        system = make_system(family)
        table = measure_AY_decay(system, *DECAY_CASE)
        assert [row[1] for row in table.rows] == _cumsum_fractions(
            system, *DECAY_CASE)

    def test_skew_sampling_runs(self, viana):
        table = measure_AY_decay(viana, [10], 0.1, 0.1, 1000, 4)
        assert len(table.rows) == 1
        assert table.domain_length == viana.fiber_domain.length

    def test_memory_bounded_by_the_cloud(self, logistic):
        # running sums, not (n, samples) arrays: at n = 60 and 10^4 samples
        # those were two 4.8 MB arrays, an 11-12 MB peak.  A cloud-sized
        # array is 80 kB; the streamed loop peaks at 2-3 MB, and the bound
        # stays below one of the old arrays.
        tracemalloc.start()
        try:
            measure_AY_decay(logistic, [30, 60], [0.05, 0.2], 0.3, 10**4, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6


def _per_step_fiber_branch_stats(skew, thetas, x0, n):
    """fiber_branch_stats as first written: theta stepped by `base` and the
    unsplit `fiber` called at every step."""
    def steps(th):
        while True:
            yield partial(skew.fiber, th), partial(skew.fiber_dx, th)
            th = skew.base(th)

    th = maps.wrap(np.asarray(thetas, dtype=float))
    return expansion._stacked(
        expansion._branch_loop(steps(th), skew.fiber_critical_points,
                               skew.fiber_domain, x0, n), x0, n)


class TestFiberBranchStats:
    def test_matches_per_step_loop(self, block_rows, viana):
        th, xs = viana.sample(make_generator(29), 100)
        for n in sorted({1, max(1, block_rows - 1), block_rows,
                         block_rows + 1, 2 * block_rows + 3}):
            got = fiber_branch_stats(viana, th, xs, n)
            want = _per_step_fiber_branch_stats(viana, th, xs, n)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), n

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

    @pytest.mark.parametrize("make_skew", [viana_skew, _linear_fiber_skew])
    def test_matches_per_pair_loop(self, make_skew):
        # the grid form against the double loop it replaced, bit for bit
        skew = make_skew()
        cases = [(seed, samples, pairs)
                 for seed, samples in zip(range(12), (1000, 1500, 2000) * 4)
                 for pairs in (1, 4)]
        for seed, samples, pairs in cases:
            assert (estimate_f2(skew, samples, seed, pairs)
                    == _per_pair_estimate_f2(skew, samples, seed, pairs)), (
                seed, samples, pairs)
        for fn in (estimate_f2, _per_pair_estimate_f2):
            with pytest.raises(EmptySample):
                fn(skew, 1000, 1, pairs_per_sample=0)


def _per_pair_estimate_f2(skew, samples, seed, pairs_per_sample=4):
    """estimate_f2 as the double loop over samples and pairs it was, the
    reference for its grid form."""
    rng = make_generator(seed)
    dom = skew.fiber_domain
    cps = skew.fiber_critical_points
    best = 0.0
    admissible = 0
    th = rng.uniform(0.0, 1.0, samples)
    xs = rng.uniform(dom.lo, dom.hi, samples)
    angles = rng.uniform(0.0, 2.0 * math.pi, (samples, pairs_per_sample))
    radii = rng.uniform(0.0, 1.0, (samples, pairs_per_sample))
    for i in range(samples):
        t, x = float(th[i]), float(xs[i])
        dv = min((abs(x - c) for c in cps), default=1.0)
        if dv <= 0.0:
            continue
        fz = abs(float(skew.fiber_dx(t, x)))
        if fz <= 1e-300:
            continue
        for q in range(pairs_per_sample):
            rad = 0.999 * 0.5 * dv * float(radii[i, q])
            if rad == 0.0:
                continue
            dt = rad * math.cos(float(angles[i, q]))
            dx = rad * math.sin(float(angles[i, q]))
            tw, xw = (t + dt) % 1.0, x + dx
            if not dom.lo <= xw <= dom.hi:
                continue
            fw = abs(float(skew.fiber_dx(tw, xw)))
            if fw <= 1e-300:
                continue
            dist = math.hypot(min(abs(dt), 1.0 - abs(dt)), dx)
            if dist == 0.0 or dist >= 0.5 * dv:
                continue
            admissible += 1
            ratio = abs(math.log(fz) - math.log(fw)) * dv / dist
            if ratio > best:
                best = ratio
    if admissible == 0:
        raise EmptySample("no admissible pairs were drawn")
    return best


class TestBranchStatsShapes:
    def test_one_anchor_is_a_column_of_a_batch(self, logistic):
        """A 0-d anchor gives the column its value has in a batch."""
        xs = np.array([0.3, 0.5, 0.7])
        r, logd, alive = branch_stats(logistic, xs, 6)
        for i, x in enumerate(xs.tolist()):
            r1, logd1, alive1 = branch_stats(logistic, x, 6)
            assert r1.shape == logd1.shape == (6,) and alive1.shape == ()
            assert r1.tobytes() == r[:, i].tobytes()
            assert logd1.tobytes() == logd[:, i].tobytes()
            assert bool(alive1) == alive[i]


# float.hex of (ftle_full(skew, z, n), ftle_fiber(fiber_sequence(skew, theta),
# x, n)) for skew = viana_skew(d=d), z = (theta, x), taken before the fiber
# was split into a theta-coefficient and an x-step.  With d = 3 the base
# orbit keeps its float digits (61 distinct theta in 60 steps, against 15 for
# d = 16), so the pins hold the fiber arithmetic, not only the zero orbit.
_PINNED_FTLE = {
    (16, (0.3, 0.2)): (
        ("-0x1.d526791522e40p-1", "-0x1.d5240f0e0e077p-1"),
        ("0x1.bfc18a8160b19p-2", "0x1.bff4d3405cdcbp-2"),
        ("0x1.bfd4f3eddbfe9p-2", "0x1.c0083caec9877p-2"),
        ("0x1.bfc4a1b73a7eep-2", "0x1.bff7ea708b68fp-2"),
        ("0x1.bdcb747a0adc8p-2", "0x1.bdfed833fb014p-2")),
    (16, (0.7135, -1.1)): (
        ("0x1.93af5a2cc7e15p-1", "0x1.93b0aee21c2c9p-1"),
        ("0x1.bc8e4f8eedf2ep-2", "0x1.bcc1ace2245c3p-2"),
        ("0x1.bcc0087b3b16dp-2", "0x1.bcf365e630660p-2"),
        ("0x1.bcd7bf27dbf4bp-2", "0x1.bd0b1c957284ap-2"),
        ("0x1.bc10227a4e0a3p-2", "0x1.bc438df12c4aap-2")),
    (16, (0.05123, 1.4)): (
        ("0x1.07896995d33e8p+0", "0x1.0795235c1ea1bp+0"),
        ("0x1.b9cf6c1e1c097p-2", "0x1.ba02cecb3c931p-2"),
        ("0x1.b990504d26c2dp-2", "0x1.b9c3b2ed84185p-2"),
        ("0x1.b9bfd477297e9p-2", "0x1.b9f3372c27347p-2"),
        ("0x1.bc8ecb64bd18bp-2", "0x1.bcc2393a3fa63p-2")),
    (3, (0.3, 0.2)): (
        ("-0x1.d569e3f5bbfebp-1", "-0x1.d5240f0e0e077p-1"),
        ("0x1.8c85dd244247bp-2", "0x1.a540dbb2bb30cp-2"),
        ("0x1.8c921df8a52b4p-2", "0x1.a54beac4d01fbp-2"),
        ("0x1.8c9c73088e316p-2", "0x1.a554c21e90216p-2"),
        ("0x1.879d2972808f7p-2", "0x1.a04717d4b8634p-2")),
    (3, (0.7135, -1.1)): (
        ("0x1.93607e30f940ap-1", "0x1.93b0aee21c2c9p-1"),
        ("0x1.857d5557d5159p-2", "0x1.9e50de80a37dbp-2"),
        ("0x1.85aa5dd360f7fp-2", "0x1.9e8630bbaff09p-2"),
        ("0x1.85cc8484f9122p-2", "0x1.9ea7701aa0efbp-2"),
        ("0x1.84d3dc6eb5bdap-2", "0x1.9d62a88d56e9ep-2")),
    (3, (0.05123, 1.4)): (
        ("0x1.00929b14acff8p+0", "0x1.0795235c1ea1bp+0"),
        ("0x1.84e2d7eb1bc01p-2", "0x1.9dd01fad6fdcfp-2"),
        ("0x1.850a3d046ecf3p-2", "0x1.9df740f2cb8a4p-2"),
        ("0x1.84c102995231fp-2", "0x1.9dac7a3712cfep-2"),
        ("0x1.82cbca56dee64p-2", "0x1.9b7c347096e59p-2")),
}


@pytest.mark.parametrize("d, z", list(_PINNED_FTLE))
def test_ftle_bits_pinned(d, z):
    # n on both sides of the orbit chunk, and past two of them
    skew = viana_skew(d=d)
    assert expansion._ORBIT_CHUNK == 4096
    for n, want in zip((1, 4095, 4096, 4097, 12305), _PINNED_FTLE[d, z]):
        got = (ftle_full(skew, z, n).hex(),
               ftle_fiber(fiber_sequence(skew, z[0]), z[1], n).hex())
        assert got == want, n

