import math

import numpy as np
import pytest
from scipy import integrate

from fiberdyn import (BinGrid1D, EmpiricalMeasure, density_compare,
                      doubling_map, empirical_measure, ergodic_components,
                      fiber_sequence, identity_map, invariance_defect, maps,
                      measures, nu_like_mass, orbit_bin_counts)
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

    def test_coarsen_matches_rebuild(self, logistic):
        mu512 = empirical_measure(logistic, 3000, 40, 512, 13)
        mu256 = empirical_measure(logistic, 3000, 40, 256, 13)
        assert np.array_equal(mu512.coarsen(2).weights, mu256.weights)


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

    def test_constant_sequence_equals_its_map(self, logistic, logistic_seq):
        assert (nu_like_mass(logistic_seq, 2000, 20, 0.2, 1)
                == nu_like_mass(logistic, 2000, 20, 0.2, 1))

    def test_non_constant_sequence_rejected(self, viana):
        # a fiber sequence is not its first map repeated
        seq = fiber_sequence(viana, 0.3)
        with pytest.raises(ValueError, match="constant sequence"):
            nu_like_mass(seq, 2000, 20, 0.2, 1)


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


def _per_step_bin_counts(system, samples, n, grid, seed):
    grid = resolve_grid(system, grid)
    state = system.sample(make_generator(seed), samples)
    counts = np.zeros((n + 1, grid.size), dtype=np.int64)
    for j in range(n + 1):
        counts[j] = np.bincount(_per_step_index(grid, state),
                                minlength=grid.size)
        if j < n:
            state = system.step(state, j)
    return counts


def _per_step_histograms(system, probes, n, grid, seed, burn):
    state = system.sample(make_generator(seed), probes)
    hists = np.zeros((probes, grid.size))
    rows = np.arange(probes)
    for j in range(n):
        if j >= burn:
            hists[rows, _per_step_index(grid, state)] += 1.0
        state = system.step(state, j)
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


# 100 points per cloud: 1 and 2 rows per block, and the default's 163
BLOCK_ROWS = [1, 2, measures._BLOCK_POINTS // 100]


@pytest.fixture(params=BLOCK_ROWS, ids=lambda r: f"rows{r}")
def block_rows(request, monkeypatch):
    rows = request.param
    if rows * 100 != measures._BLOCK_POINTS:
        monkeypatch.setattr(measures, "_BLOCK_POINTS", rows * 100)
    assert max(1, measures._BLOCK_POINTS // 100) == rows
    return rows


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
        xs = np.concatenate([rng.uniform(-1.0, 2.0, 5000),
                             [-0.5, 1.5, np.nextafter(1.5, 0.0)]])
        assert np.array_equal(grid1.index(xs), _per_step_index(grid1, xs))
        grid2 = resolve_grid(viana, 24 * 24)
        state = (rng.uniform(-2.0, 3.0, (3, 5000)),
                 rng.uniform(-2.5, 2.5, (3, 5000)))
        assert np.array_equal(grid2.index(state),
                              _per_step_index(grid2, state))


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
    """The block loops make exactly n map steps, neither more nor fewer."""

    @pytest.mark.parametrize("family", ["logistic", "twowell", "viana"])
    def test_n_steps(self, monkeypatch, family):
        system = maps.make_system(family)
        cls = type(system)
        step = cls.step
        calls = []

        def counting_step(self, state, j):
            calls.append(j)
            return step(self, state, j)

        monkeypatch.setattr(cls, "step", counting_step)
        for n in (1, 163, 500):
            calls.clear()
            orbit_bin_counts(system, 100, n, 64, 5)
            assert calls == list(range(n))
            calls.clear()
            ergodic_components(system, 100, n, 64, 5, burn_frac=0.137)
            assert calls == list(range(n))
        calls.clear()
        orbit_bin_counts(system, 10**4, 7, 64, 5)
        assert calls == list(range(7))


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
