import dataclasses
import math
import reprlib
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from fiberdyn import (BinGrid1D, BinGrid2D, EmpiricalMeasure, InvalidConstants,
                      branch_stats, density_compare, doubling_map,
                      empirical_measure, ergodic_components,
                      fiber_branch_stats, identity_map, invariance_defect,
                      maps, nu_like_mass, orbit_bin_counts)
from fiberdyn.measures import (_cluster_count, _l1_distances,
                               _probe_histograms, resolve_grid)
from fiberdyn.rng import make_generator


def arcsine_density(x):
    return 1.0 / (math.pi * math.sqrt(max(x * (1.0 - x), 1e-300)))


class TestEmpiricalMeasure:
    def test_identity_map_reproduces_uniform(self):
        m = identity_map()
        mu = empirical_measure(m, 10**4, 5, 128, 2)
        tol = 3.0 / math.sqrt(10**4)
        assert np.all(np.abs(mu.weights - 1.0 / 128) <= tol)

    def test_doubling_map_keeps_uniform(self):
        mu = empirical_measure(doubling_map(), 10**4, 50, 128, 3)
        tol = 3.0 / math.sqrt(10**4)
        assert np.all(np.abs(mu.weights - 1.0 / 128) <= tol)

    def test_normalization(self, logistic):
        mu = empirical_measure(logistic, 2000, 100, 256, 5)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert mu.weights.min() >= 0.0

    def test_seed_determinism_bitwise(self, logistic):
        a = empirical_measure(logistic, 3000, 50, 64, 11)
        b = empirical_measure(logistic, 3000, 50, 64, 11)
        assert np.array_equal(a.weights, b.weights)

    def test_metadata_records_seed(self, logistic):
        mu = empirical_measure(logistic, 1000, 10, 32, 123)
        assert mu.metadata["seed"] == 123
        assert mu.metadata["generator"] == "philox4x64"

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(BinGrid1D(0, 1, 4),
                             np.array([0.5, 0.6, -0.1, 0.0]), {})

    def test_skew_measure_2d(self, viana):
        mu = empirical_measure(viana, 2000, 20, 64 * 64, 7)
        assert mu.weights.size == 64 * 64
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("family", ["logistic", "twowell", "viana"])
    def test_weights_are_the_summed_bin_counts(self, block_rows, family):
        # one running tally over the blocks, against the (n + 1, bins)
        # counts of orbit_bin_counts summed over their first n rows
        system = maps.make_system(family)
        for n in sorted({1, block_rows, block_rows + 1, 2 * block_rows + 3}):
            got = empirical_measure(system, 100, n, 64, 29).weights
            counts, _ = orbit_bin_counts(system, 100, n, 64, 29)
            want = counts[:n].sum(0) / float(100 * n)
            assert got.tobytes() == want.tobytes(), n

    def test_memory_bounded_by_a_block(self):
        # one histogram per block, not the (n + 1, bins) counts: at the
        # default 128 x 128 grid and n = 1000 those were 131 MB, a 132 MB
        # tracemalloc peak; a block of the cloud is 16,384 points
        system = maps.viana_skew()
        tracemalloc.start()
        try:
            empirical_measure(system, 100, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6

    def test_skew_bins_must_be_square(self, viana):
        grid = resolve_grid(viana, 64)
        assert (grid.base_bins, grid.fiber_bins) == (8, 8)
        for bins in (7, 10, 63):
            with pytest.raises(ValueError, match="square"):
                resolve_grid(viana, bins)


class TestTelescoping:
    def test_exact_identity_on_matched_orbits(self, logistic):
        samples, n = 4000, 60
        counts, grid = orbit_bin_counts(logistic, samples, n, 128, 9)
        mu = counts[:n].sum(axis=0) / (samples * n)
        push = counts[1:n + 1].sum(axis=0) / (samples * n)
        lhs = mu - push
        rhs = (counts[0] - counts[n]) / (samples * n)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_grid_refinement_consistency(self, logistic):
        # building at 512 bins and pair-summing equals building at 256
        counts512, _ = orbit_bin_counts(logistic, 3000, 40, 512, 13)
        counts256, _ = orbit_bin_counts(logistic, 3000, 40, 256, 13)
        merged = counts512.reshape(41, 256, 2).sum(axis=2)
        assert np.array_equal(merged, counts256)


class TestInvarianceDefect:
    def test_uniform_under_doubling(self):
        grid = BinGrid1D(0.0, 1.0, 256)
        uniform = EmpiricalMeasure(grid, np.full(256, 1.0 / 256), {})
        defect = invariance_defect(uniform, doubling_map(), 10**6, 17)
        assert defect <= 0.02

    def test_point_mass_far_from_invariance(self, logistic):
        grid = BinGrid1D(0.0, 1.0, 256)
        w = np.zeros(256)
        w[51] = 1.0   # around x = 0.2, which maps to 0.64
        point = EmpiricalMeasure(grid, w, {})
        defect = invariance_defect(point, logistic, 10**4, 19)
        assert defect >= 1.9

    def test_averaged_measure_nearly_invariant(self, logistic):
        # the transfer estimator carries a within-bin uniformization bias at
        # the singular density edges; the exactly binned invariant density
        # calibrates that floor, and the averaged measure may only add its
        # own 2/n non-invariance plus Monte-Carlo noise
        grid = BinGrid1D(0.0, 1.0, 256)
        masses = np.diff((2.0 / np.pi) * np.arcsin(np.sqrt(grid.edges)))
        oracle = EmpiricalMeasure(grid, masses / masses.sum(), {})
        floor = invariance_defect(oracle, logistic, 10**6, 23)
        mu = empirical_measure(logistic, 10**4, 10**3, 256, 23)
        defect = invariance_defect(mu, logistic, 10**6, 23)
        assert defect <= floor + 2.0 / 10**3 + 0.02


class TestDensityCompare:
    def test_exactly_binned_oracle_gives_zero(self):
        grid = BinGrid1D(0.0, 1.0, 64)
        e = grid.edges
        masses = np.diff((2.0 / np.pi) * np.arcsin(np.sqrt(e)))
        mu = EmpiricalMeasure(grid, masses / masses.sum(), {})
        assert density_compare(mu, arcsine_density) <= 1e-9

    def test_uniform_against_arcsine(self):
        # independent quadrature of |1 - density| over [0, 1]
        expected = integrate.quad(
            lambda x: abs(1.0 - arcsine_density(x)), 0.0, 1.0,
            points=[0.1144, 0.8856], limit=200)[0]
        grid = BinGrid1D(0.0, 1.0, 256)
        uniform = EmpiricalMeasure(grid, np.full(256, 1.0 / 256), {})
        got = density_compare(uniform, arcsine_density)
        assert got == pytest.approx(expected, abs=0.01)
        assert got == pytest.approx(0.4211, abs=0.005)

    def test_skew_grid_midpoint_masses(self):
        # 4 x 4 bins over [0, 1) x [-1, 1], uniform weights 4/64 a bin; the
        # density 2(x - lo)/L^2 gives fiber bin i the mass (2i + 1)/64 in
        # each theta row, so the distance is 4 (3 + 1 + 1 + 3)/64 = 1/2
        grid = BinGrid2D(4, -1.0, 1.0, 4)
        mu = EmpiricalMeasure(grid, np.full(16, 1.0 / 16), {})
        assert density_compare(mu, lambda t, x: 0.5 + 0.0 * x) <= 1e-15
        assert density_compare(mu, lambda t, x: 2.0 * (x + 1.0) / 4.0) \
            == pytest.approx(0.5, abs=1e-15)

    def test_averaged_measure_close_to_oracle(self, logistic):
        mu = empirical_measure(logistic, 10**4, 10**3, 256, 29)
        assert density_compare(mu, arcsine_density) <= 0.05


class TestErgodicComponents:
    def test_logistic_single_component(self, logistic):
        rep = ergodic_components(logistic, 100, 10**4, 64, 1)
        assert rep.count == 1

    def test_twowell_two_components(self, twowell):
        rep = ergodic_components(twowell, 100, 10**4, 64, 1)
        assert rep.count == 2

    def test_identity_with_loose_threshold(self):
        rep = ergodic_components(identity_map(), 100, 100, 32, 3,
                                 link_threshold=2.5)
        assert rep.count == 1

    def test_sensitivity_reported(self, twowell):
        rep = ergodic_components(twowell, 100, 5000, 64, 5)
        assert set(rep.sensitivity) == {0.1, 0.2, 0.3, 0.5}

    def test_probe_floor(self, logistic):
        with pytest.raises(ValueError):
            ergodic_components(logistic, 10, 100, 32, 1)

    def test_assignment_shape(self, twowell):
        rep = ergodic_components(twowell, 120, 5000, 64, 7)
        assert len(rep.assignment) == 120
        assert max(rep.assignment) == rep.count - 1


class TestNuLikeMass:
    def test_bound_holds_for_logistic(self, logistic):
        rec = nu_like_mass(logistic, 3000, 50, 0.1, 31)
        assert rec.bound_holds
        assert rec.mass >= rec.zeta * rec.anchor_fraction - 1e-12

    def test_bound_holds_for_skew(self, viana):
        rec = nu_like_mass(viana, 2000, 40, 0.2, 33)
        assert rec.bound_holds

    def test_empty_orbit_or_cloud_rejected(self, logistic):
        # no step to count: a mean over zero indices has no value
        for samples, n in ((100, 0), (0, 10)):
            with pytest.raises(ValueError, match="need samples"):
                nu_like_mass(logistic, samples, n, 0.1, 1)

    @pytest.mark.parametrize("delta_tilde", [1.0, 0.6, 0.0, -0.1])
    def test_constants_outside_pliss_range_rejected(self, logistic,
                                                    delta_tilde):
        # c1 = delta, c2 = 2 delta, A = |I0| = 1 need 0 < delta <= A / 2;
        # 1.0 divided by zero, and the others returned bound_holds = True
        with pytest.raises(InvalidConstants, match="need c1 < c2 <= A"):
            nu_like_mass(logistic, 100, 10, delta_tilde, 1)

    @pytest.mark.parametrize("family", ["logistic", "viana"])
    def test_matches_stacked_arrays(self, block_rows, family):
        """The streamed counts and sums equal the computation on the full
        (n, samples) arrays of branch_stats / fiber_branch_stats."""
        system = maps.make_system(family)
        cloud = system.sample(make_generator(37), 100)
        for n in sorted({1, block_rows, block_rows + 1, 2 * block_rows + 3}):
            r, _, _ = (fiber_branch_stats(system, *cloud, n)
                       if family == "viana"
                       else branch_stats(system, cloud, n))
            mass = float((r >= 0.2).mean())
            anchors = float((r.sum(axis=0) >= 2.0 * 0.2 * n).mean())
            got = nu_like_mass(system, 100, n, 0.2, 37)
            assert (got.mass, got.anchor_fraction) == (mass, anchors), n
            assert got.bound_holds == (mass >= got.zeta * anchors - 1e-12)


# ---------------------------------------------------------------------------
# block-binned cloud loops against the per-step loops they replaced
# ---------------------------------------------------------------------------

def _per_step_index(grid, state):
    """grid.index as first written, with np.clip, for one step's cloud."""
    if isinstance(grid, BinGrid1D):
        scaled = (np.asarray(state) - grid.lo) / (grid.hi - grid.lo) * grid.bins
        return np.clip(scaled.astype(int), 0, grid.bins - 1)
    theta, x = state
    ti = np.clip((np.asarray(theta) % 1.0 * grid.base_bins).astype(int),
                 0, grid.base_bins - 1)
    span = grid.fiber_hi - grid.fiber_lo
    xi = np.clip(((np.asarray(x) - grid.fiber_lo) / span
                  * grid.fiber_bins).astype(int), 0, grid.fiber_bins - 1)
    return ti * grid.fiber_bins + xi


def _per_step(system, state):
    """One step of a cloud as first written: `base` and the unsplit `fiber`
    on a skew-product, the evaluator on an interval map."""
    if isinstance(system, maps.SkewProduct):
        theta, x = state
        return system.base(theta), system.fiber(theta, x)
    return np.asarray(system.evaluator(state), float)


def _per_step_bin_counts(system, samples, n, grid, seed):
    grid = resolve_grid(system, grid)
    state = system.sample(make_generator(seed), samples)
    counts = np.zeros((n + 1, grid.size), dtype=np.int64)
    for j in range(n + 1):
        counts[j] = np.bincount(_per_step_index(grid, state),
                                minlength=grid.size)
        if j < n:
            state = _per_step(system, state)
    return counts


def _per_step_histograms(system, probes, n, grid, seed, burn):
    state = system.sample(make_generator(seed), probes)
    hists = np.zeros((probes, grid.size))
    rows = np.arange(probes)
    for j in range(n):
        if j >= burn:
            hists[rows, _per_step_index(grid, state)] += 1.0
        state = _per_step(system, state)
    hists /= hists.sum(axis=1, keepdims=True)
    return hists


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        self.parent[self.find(i)] = self.find(j)


def _union_find_clusters(hists, threshold):
    """Single linkage over L1 rows recomputed per threshold, as first written."""
    p = hists.shape[0]
    uf = _UnionFind(p)
    for i in range(p):
        d = np.abs(hists[i + 1:] - hists[i]).sum(axis=1)
        for off in np.flatnonzero(d < threshold):
            uf.union(i, i + 1 + int(off))
    order = {}
    assignment = []
    for r in (uf.find(i) for i in range(p)):
        order.setdefault(r, len(order))
        assignment.append(order[r])
    return len(order), tuple(assignment)


class TestBlockBinning:
    @pytest.mark.parametrize("family", ["twowell", "viana"])
    def test_bin_counts_match_per_step(self, block_rows, family):
        system = maps.make_system(family)
        grid = 64
        for n in sorted({1, max(1, block_rows - 1), block_rows,
                         block_rows + 1, 2 * block_rows + 3}):
            got, _ = orbit_bin_counts(system, 100, n, grid, 11)
            want = _per_step_bin_counts(system, 100, n, grid, 11)
            assert got.shape == (n + 1, want.shape[1])
            assert np.array_equal(got, want), n

    @pytest.mark.parametrize("family", ["twowell", "viana"])
    def test_histograms_match_per_step(self, block_rows, family):
        system = maps.make_system(family)
        grid = resolve_grid(system, 64)
        for n in sorted({1, block_rows, block_rows + 1, 2 * block_rows + 3}):
            for burn in sorted({0, n // 2, 3 % n, n - 1}):
                got = _probe_histograms(system, 100, n, grid, 13, burn)
                want = _per_step_histograms(system, 100, n, grid, 13, burn)
                assert got.tobytes() == want.tobytes(), (n, burn)

    def test_index_matches_clip_formula(self, viana):
        rng = make_generator(17)
        grid1 = BinGrid1D(-0.5, 1.5, 37)
        ends = [-0.5, 1.5, np.nextafter(-0.5, -np.inf),
                np.nextafter(1.5, np.inf), np.nextafter(1.5, 0.0), -0.0]
        xs = np.concatenate([rng.uniform(-1.0, 2.0, 5000), ends])
        assert np.array_equal(grid1.index(xs), _per_step_index(grid1, xs))
        grid2 = resolve_grid(viana, 24 * 24)
        lo, hi = grid2.fiber_lo, grid2.fiber_hi
        fiber_ends = [lo, hi, np.nextafter(lo, -np.inf),
                      np.nextafter(hi, np.inf), -0.0]
        state = (rng.uniform(-2.0, 3.0, (3, 5000)),
                 rng.uniform(-2.5, 2.5, (3, 5000)))
        state[1][0, :len(fiber_ends)] = fiber_ends
        assert np.array_equal(grid2.index(state),
                              _per_step_index(grid2, state))
        # float (0-d) input gives the bins of the array input
        for x in ends:
            assert grid1.index(float(x)) == _per_step_index(grid1, x)
        for theta, x in zip(state[0][0, :50], state[1][0, :50]):
            got = grid2.index((float(theta), float(x)))
            assert got == _per_step_index(grid2, (theta, x))
        # +-1e300 scale past the int64 range, where casting before the clip
        # is undefined (x86 casts both signs to INT64_MIN, so bin 0); the
        # clip on the float puts them in the end bins
        row = 12 * grid2.fiber_bins        # theta = 0.5 of 24 base bins
        for big, end1, end2 in ((-1e300, 0, 0),
                                (1e300, grid1.bins - 1, grid2.fiber_bins - 1)):
            assert grid1.index(big) == end1
            assert grid1.index(np.array([big])).tolist() == [end1]
            assert grid2.index((0.5, big)) == row + end2
            assert grid2.index((np.array([0.5]), np.array([big]))).tolist() \
                == [row + end2]

    # power-of-two widths 2^-6 .. 2^7 with lo = 0 and lo != 0, widths that
    # are not powers of two, and 2-d grids whose fiber width is a power of
    # two, each with 1 .. 12345 bins
    EXACT_GRIDS = (
        [BinGrid1D(lo, lo + 2.0**k, bins)
         for k in (-6, -1, 0, 3, 7) for lo in (0.0, -0.5, 0.3, -3.25)
         for bins in (1, 7, 64, 12345)]
        + [BinGrid1D(0.1, 0.7, 100), BinGrid1D(-1.8784, 1.8784, 128),
           BinGrid1D(0.0, 3.0, 12345),
           BinGrid2D(16, -1.0, 1.0, 64), BinGrid2D(24, 0.0, 4.0, 5),
           BinGrid2D(3, 0.25, 0.25 + 2.0**-6, 12345),
           BinGrid2D(8, -1.8784, 1.8784, 100)])

    @staticmethod
    def _probe_points(lo, hi, bins):
        """Every bin edge and 1 to 3 ulps either side, +-0.0, subnormals
        and uniform points over the range and a width beyond it."""
        edges = np.linspace(lo, hi, bins + 1)
        near = [edges]
        for toward in (-np.inf, np.inf):
            x = edges
            for _ in range(3):
                x = np.nextafter(x, toward)
                near.append(x)
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                         2.2250738585072014e-308])
        width = hi - lo
        spread = make_generator(bins).uniform(lo - width, hi + width, 2000)
        return np.concatenate(near + [tiny, lo + tiny, spread])

    @pytest.mark.parametrize("grid", EXACT_GRIDS, ids=repr)
    def test_index_bins_match_divide_formula(self, grid):
        if isinstance(grid, BinGrid1D):
            xs = self._probe_points(grid.lo, grid.hi, grid.bins)
            assert np.array_equal(grid.index(xs), _per_step_index(grid, xs))
            for x in xs[::97]:
                assert grid.index(float(x)) == _per_step_index(grid, x)
            huge = grid.index(np.array([-1e300, 1e300]))
            assert huge.tolist() == [0, grid.bins - 1]
            return
        xs = self._probe_points(grid.fiber_lo, grid.fiber_hi, grid.fiber_bins)
        thetas = self._probe_points(0.0, 1.0, grid.base_bins)
        theta = np.resize(thetas, xs.size)
        state = (theta, xs)
        assert np.array_equal(grid.index(state), _per_step_index(grid, state))
        for t, x in zip(theta[::97], xs[::97]):
            assert grid.index((float(t), float(x))) == \
                _per_step_index(grid, (t, x))
        huge = grid.index((np.array([0.0, 0.0]), np.array([-1e300, 1e300])))
        assert huge.tolist() == [0, grid.fiber_bins - 1]

    def test_only_power_of_two_widths_from_zero_multiply(self, viana):
        def scale(lo, hi, bins=10):
            return BinGrid1D(lo, hi, bins).scale
        # widths 2^-6, 2^7 and 2^1000 from lo = 0
        assert scale(0.0, 2.0**-6) == 640.0
        assert scale(0.0, 2.0**7) == 10.0 / 128
        assert scale(0.0, 2.0**1000) == 10.0 * 2.0**-1000
        assert scale(0.0, 1.0, 256) == 256.0
        # lo != 0, not a power of two, a subnormal width, or an infinite
        # scale
        for lo, hi in ((-0.5, 1.5), (-3.25, 124.75), (0.0, 0.6), (0.0, 3.0),
                       (-1.8784, 1.8784), (0.0, 1.0 + 2.0**-52),
                       (0.0, np.nextafter(1.0, 0.0)),
                       (0.0, 5e-324), (0.0, 2.0**-1030)):
            assert scale(lo, hi) is None, (lo, hi)
        assert scale(0.0, 2.0**-1022, 2**60) is None
        grid = resolve_grid(viana)
        assert grid._theta.scale == float(grid.base_bins)
        assert grid._fiber.scale is None
        assert BinGrid2D(16, -1.0, 1.0, 64)._fiber.scale is None
        assert BinGrid2D(24, 0.0, 4.0, 5)._fiber.scale == 1.25

    def test_index_wraps_theta_like_remainder(self, viana):
        # theta outside [0, 1): negative values, 1.0 and the integers, where
        # the old np.remainder wrap and floor-subtract must agree
        grid = resolve_grid(viana, 32 * 32)
        one_minus = float(np.nextafter(1.0, 0.0))
        theta = np.concatenate([
            make_generator(19).uniform(-3.0, 0.0, 2000),
            [1.0, 2.0, -1.0, -0.0, -1e-300, -1e-17, -one_minus, one_minus,
             -0.5, 1.5, -2.0**-53, 16.0]])
        x = make_generator(20).uniform(-1.5, 1.5, theta.size)
        t = np.remainder(theta, 1.0, dtype=float) * grid.base_bins
        old = (np.clip(t.astype(int), 0, grid.base_bins - 1) * grid.fiber_bins
               + _per_step_index(grid, (np.zeros_like(x), x)))
        got = grid.index((theta, x))
        assert np.array_equal(got, old)
        assert np.array_equal(grid.index((theta[None], x[None])), old[None])
        for th, xv, want in zip(theta[-12:], x[-12:], old[-12:]):
            assert grid.index((float(th), float(xv))) == want


class TestBinGridValidation:
    @pytest.mark.parametrize("kind, args", [
        (BinGrid1D, (-math.inf, 1.0, 4)),
        (BinGrid1D, (0.0, math.inf, 4)),
        (BinGrid1D, (math.nan, 1.0, 4)),
        (BinGrid1D, (-1e308, 1e308, 4)),      # hi - lo overflows
        (BinGrid1D, (0, 10**400, 4)),         # int bounds past the floats
        (BinGrid1D, (10**400, 10**400 + 1, 4)),
        (BinGrid1D, (0.0, 1.0, 2.5)),
        (BinGrid1D, (0.0, 1.0, 4.0)),
        (BinGrid1D, (0.0, 1.0, 0)),
        (BinGrid1D, (1.0, 1.0, 4)),
        (BinGrid2D, (4.5, -1.0, 1.0, 4)),
        (BinGrid2D, (4, -1.0, 1.0, 2.5)),
        (BinGrid2D, (0, -1.0, 1.0, 4)),
        (BinGrid2D, (4, -math.inf, 1.0, 4)),
        (BinGrid2D, (4, -1e308, 1e308, 4)),
        (BinGrid2D, (4, -10**400, 0, 4)),
        (BinGrid2D, (4, 1.0, -1.0, 4)),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else reprlib.repr(v))
    def test_rejects_bounds_and_counts_that_bin_wrongly(self, kind, args):
        with pytest.raises(ValueError):
            kind(*args)

    @pytest.mark.parametrize("kind, args", [
        (BinGrid1D, (0.0, 1.0, 10**400)),
        (BinGrid2D, (10**400, -1.0, 1.0, 4)),
        (BinGrid2D, (4, -1.0, 1.0, 2**1024)),
    ], ids=["1d", "2d-base", "2d-fiber"])
    def test_rejects_bin_counts_past_the_floats(self, kind, args):
        # bins / width cannot be formed; the message names the count, not
        # the bounds
        with pytest.raises(ValueError, match="bin count"):
            kind(*args)

    def test_accepts_integral_counts_and_finite_bounds(self):
        grid = BinGrid1D(0, 1, np.int64(4))
        assert grid.index([0.1, 0.9]).tolist() == [0, 3]
        assert BinGrid2D(np.int32(4), -1e307, 1e307, 4).size == 16


class TestClusterCount:
    @pytest.mark.parametrize("p", [100, 257])
    def test_matches_union_find(self, p):
        rng = make_generator(p)
        centres = rng.dirichlet(np.ones(16), 5)
        hists = (centres[rng.integers(0, 5, p)]
                 + rng.uniform(0.0, 0.1, (p, 16)))
        hists /= hists.sum(axis=1, keepdims=True)
        dist = _l1_distances(hists)
        tie = float(dist[0, 1])
        # 0 leaves every probe alone and 3 > 2 >= any L1 distance links all
        for t in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, tie, 3.0):
            assert _cluster_count(dist, t) == _union_find_clusters(hists, t)
        assert _cluster_count(dist, 0.0) == (p, tuple(range(p)))
        assert _cluster_count(dist, 3.0) == (1, (0,) * p)
        # the tie is strict: probes 0 and 1 link only just above it
        above = np.nextafter(tie, np.inf)
        linked = _cluster_count(dist, above)[1]
        assert linked[0] == linked[1]
        assert _cluster_count(dist, above) == _union_find_clusters(hists,
                                                                   above)

    def test_distances_are_the_row_differences(self):
        hists = make_generator(3).uniform(0.0, 1.0, (120, 33))
        dist = _l1_distances(hists)
        for i in range(hists.shape[0]):
            d = np.abs(hists[i + 1:] - hists[i]).sum(axis=1)
            assert dist[i, i + 1:].tobytes() == d.tobytes()
            assert dist[i + 1:, i].tobytes() == d.tobytes()
        assert not dist.diagonal().any()


class TestCloudStepCount:
    """The cloud loops make exactly the steps they bin, neither more nor
    fewer: their `orbit` blocks hold rows_per_block(points) rows (the last
    at most that), and one map call makes each row after row 0."""

    @pytest.mark.parametrize("family", ["logistic", "twowell", "viana"])
    def test_n_steps(self, monkeypatch, family):
        system = maps.make_system(family)
        skew = isinstance(system, maps.SkewProduct)
        name = "fiber_step" if skew else "evaluator"
        real, calls, blocks = getattr(system, name), [], []
        system = dataclasses.replace(
            system, **{name: lambda *a: calls.append(a) or real(*a)})
        cls = type(system)
        orbit = cls.orbit

        def counting_orbit(self, state, n):
            for block in orbit(self, state, n):
                blocks.append(len(block[1] if skew else block))
                yield block

        def rows_and_calls():
            rows = maps.rows_per_block(points)
            assert blocks[:-1] == [rows] * (len(blocks) - 1)
            assert 1 <= blocks[-1] <= rows
            counted = sum(blocks), len(calls)
            blocks.clear()
            calls.clear()
            return counted

        monkeypatch.setattr(cls, "orbit", counting_orbit)
        calls.clear()
        points = 100
        for n in (1, 163, 500):
            empirical_measure(system, points, n, 64, 5)
            assert rows_and_calls() == (n, n - 1)
            ergodic_components(system, points, n, 64, 5, burn_frac=0.137)
            assert rows_and_calls() == (n, n - 1)
            orbit_bin_counts(system, points, n, 64, 5)
            assert rows_and_calls() == (n + 1, n)
        points = 10**4
        orbit_bin_counts(system, points, 7, 64, 5)
        assert rows_and_calls() == (8, 7)


class TestComponentInputs:
    @pytest.mark.parametrize("burn_frac", [1.0, 1.5, -0.5, float("nan")])
    def test_rejected_outside_unit_interval(self, logistic, burn_frac):
        with pytest.raises(ValueError, match="burn_frac"):
            ergodic_components(logistic, 100, 20, 16, 1,
                               burn_frac=burn_frac)

    def test_empty_orbit_rejected(self, logistic):
        # no iterate to bin would leave every histogram 0/0
        with pytest.raises(ValueError, match="n >= 1"):
            ergodic_components(logistic, 100, 0, 16, 1)

    def test_zero_burn_in_accepted(self, logistic):
        rep = ergodic_components(logistic, 100, 20, 16, 1, burn_frac=0.0)
        assert rep.metadata["burn_in"] == 0
