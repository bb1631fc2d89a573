import math

import numpy as np
import pytest

from fiberdyn import (ClosureDiverges, DegenerateGap, HitCritical,
                      InducedBranch, InducingTimeNotFound, MarkovPartition,
                      NotMonotone, affine_map, assemble_markov,
                      build_partition, constant_sequence, cross_ratio,
                      cross_ratio_operator, doubling_map,
                      fit_cross_ratio_constant, inducing_time, inducing_times,
                      moebius_map, monotone_scale, quadratic_map,
                      summability_stat, track_branch)
from fiberdyn.rng import make_generator

E1 = (2.0 - math.sqrt(2.0)) / 4.0


class TestBuildPartition:
    def test_logistic_depth_zero(self, logistic):
        part = build_partition(logistic, 0)
        assert part.endpoints == pytest.approx((0.0, 0.5, 1.0), abs=1e-12)

    def test_logistic_depth_one(self, logistic):
        part = build_partition(logistic, 1)
        assert part.endpoints == pytest.approx(
            (0.0, E1, 0.5, 1.0 - E1, 1.0), abs=1e-9)

    def test_forward_invariance(self, logistic):
        for depth in (0, 1, 2):
            part = build_partition(logistic, depth)
            assert part.invariance_defect(logistic) <= 1e-9

    def test_critical_free_map_keeps_boundary_only(self):
        part = build_partition(moebius_map(2.0), 0)
        assert part.endpoints == (0.0, 1.0)

    def test_non_closing_orbit_diverges(self):
        # critical orbit of 1.7 - x^2 wanders without landing on the set
        with pytest.raises(ClosureDiverges):
            build_partition(quadratic_map(1.7), 0)


class TestInducingTime:
    def test_covering_verified_directly(self, logistic):
        part = build_partition(logistic, 1)
        N = monotone_scale(logistic, part)
        assert N == 6
        seq = constant_sequence(logistic)
        rng = make_generator(51)
        checked = 0
        for x in rng.uniform(0.0, 1.0, 100):
            if part.near_endpoint(float(x), 1e-9):
                continue
            try:
                k, (lo, hi), ci = inducing_time(logistic, part, float(x), N)
            except Exception:
                continue
            # recompute the branch image and check the three-cell covering
            br = track_branch(seq, float(x), k)
            eps = part.endpoints
            lo_need = eps[max(ci - 1, 0)]
            hi_need = eps[min(ci + 2, len(eps) - 1)]
            assert br.img_lo <= lo_need + 1e-9
            assert br.img_hi >= hi_need - 1e-9
            assert k >= N
            # the pullback interval maps onto the cell
            img = sorted(float(seq.compose(e, k)) for e in (lo, hi))
            assert img[0] == pytest.approx(eps[ci], abs=1e-9)
            assert img[1] == pytest.approx(eps[ci + 1], abs=1e-9)
            checked += 1
        assert checked >= 90

    def test_endpoint_anchor_rejected(self, logistic):
        part = build_partition(logistic, 1)
        with pytest.raises(ValueError):
            inducing_time(logistic, part, 0.5, 6)

    def test_empty_search_range(self, logistic):
        part = build_partition(logistic, 1)
        with pytest.raises(InducingTimeNotFound):
            inducing_time(logistic, part, 0.3, N=6, k_max=5)

    def test_batch_matches_one_point_at_a_time(self, logistic):
        part = build_partition(logistic, 1)
        xs = make_generator(52).uniform(0.0, 1.0, 300).tolist()
        xs += [0.5, 0.0, E1, 0.25, 0.75]     # endpoint and critical anchors
        batch = inducing_times(logistic, part, xs, 6)
        for x, got in zip(xs, batch):
            try:
                want = inducing_time(logistic, part, x, 6)
            except (HitCritical, InducingTimeNotFound, ValueError) as ex:
                assert type(got) is type(ex) and str(got) == str(ex)
            else:
                assert got == want
        assert sum(isinstance(r, tuple) for r in batch) >= 250
        assert isinstance(batch[-5], ValueError)

    def test_partition_scale_failure_names_its_cap(self):
        # the doubling map has no critical point, so its monotone cells
        # never shrink; the failure is the depth cap n_cap, not k_max
        m = doubling_map()
        part = build_partition(m, 1)
        with pytest.raises(InducingTimeNotFound, match="n_cap=7") as info:
            monotone_scale(m, part, n_cap=7)
        assert "k_max" not in str(info.value)


@pytest.fixture(scope="module")
def certificate(logistic):
    part = build_partition(logistic, 1)
    return assemble_markov(logistic, part, seeds=2000, seed=1,
                           check_constancy=False)


class TestAssemble:

    def test_images_are_full_cells(self, certificate):
        assert certificate.image_exactness <= 1e-9
        assert not certificate.failures

    def test_images_have_minimum_length(self, certificate, logistic):
        part = build_partition(logistic, 1)
        assert certificate.min_image_length >= part.min_len - 1e-9

    def test_high_coverage(self, certificate):
        assert certificate.coverage >= 0.99

    def test_distortion_finite(self, certificate):
        assert math.isfinite(certificate.K_hat)
        assert certificate.K_hat >= 1.0

    def test_fault_injection_reports_failures(self, logistic):
        part = build_partition(logistic, 1)
        bad = MarkovPartition.from_endpoints(
            logistic, part.endpoints + (0.3,), check=False)
        cert = assemble_markov(logistic, bad, seeds=500, seed=2,
                               check_constancy=False)
        assert any("0.3" in f and "endpoint set" in f for f in cert.failures)

    def test_clean_partition_certifies_without_failures(self, logistic):
        part = build_partition(logistic, 1)
        cert = assemble_markov(logistic, part, seeds=500, seed=2,
                               check_constancy=False)
        assert not cert.failures

    def test_failure_messages_print_plain_floats(self, logistic):
        # depth 2 has constancy failures; their sample points come from
        # np.linspace and must not print as np.float64(...)
        cert = assemble_markov(logistic, build_partition(logistic, 2),
                               seeds=200, seed=1)
        assert any("not constant" in f for f in cert.failures)
        assert not any("np." in f for f in cert.failures)

    def test_fault_injection_rejected_at_construction(self, logistic):
        with pytest.raises(ValueError, match="not forward invariant"):
            MarkovPartition.from_endpoints(logistic, (0.0, 0.3, 1.0))


class TestCrossRatio:
    def test_worked_value(self):
        assert cross_ratio((0.0, 1.0), (0.25, 0.75)) == pytest.approx(8.0)

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGap):
            cross_ratio((0.0, 1.0), (0.0, 0.5))

    def test_affine_invariance(self):
        m = affine_map(0.5, 0.2)
        B = cross_ratio_operator(m, 1, (0.1, 0.9), (0.3, 0.6))
        assert B == pytest.approx(1.0, abs=1e-12)

    def test_moebius_invariance(self):
        for shift in (1.5, 2.0, 4.0):
            m = moebius_map(shift)
            B = cross_ratio_operator(m, 1, (0.05, 0.85), (0.2, 0.5))
            assert B == pytest.approx(1.0, abs=1e-12)

    def test_not_monotone_detected(self, logistic):
        with pytest.raises(NotMonotone):
            cross_ratio_operator(logistic, 1, (0.3, 0.7), (0.4, 0.6))

    def test_logistic_expands_cross_ratios(self, logistic):
        # nonpositive Schwarzian: B >= 1 on monotone intervals
        B = cross_ratio_operator(logistic, 1, (0.05, 0.45), (0.15, 0.3))
        assert B >= 1.0

    def test_fitted_drop_constant_zero_for_logistic(self, logistic):
        c1 = fit_cross_ratio_constant(logistic, 300, 3)
        c2 = fit_cross_ratio_constant(logistic, 300, 4)
        assert c1 == 0.0 and c2 == 0.0


class TestSummability:
    def test_single_step_branches_give_mean_one(self):
        m = doubling_map()
        branches = (InducedBranch(0.0, 0.5, 1, 0),
                    InducedBranch(0.5, 1.0, 1, 1))
        st = summability_stat(branches, m, 30, 20, 5)
        assert st.mean_time == 1.0
        assert st.dispersion == 0.0
        assert st.escaped == 0

    def test_logistic_stable_across_seeds(self, logistic):
        part = build_partition(logistic, 1)
        cert = assemble_markov(logistic, part, seeds=2000, seed=3,
                               check_constancy=False)
        means = []
        for seed in range(5):
            st = summability_stat(cert.branches, logistic, 50, 40, seed)
            means.append(st.mean_time)
        spread = (max(means) - min(means)) / np.mean(means)
        assert spread <= 0.10

    def test_low_coverage_rejected(self, logistic):
        branches = (InducedBranch(0.0, 0.25, 6, 0),)
        with pytest.raises(ValueError, match="cover"):
            summability_stat(branches, logistic, 10, 10, 1)
