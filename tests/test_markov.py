import bisect
import math
import tracemalloc

import numpy as np
import pytest

from fiberdyn import (ClosureDiverges, DegenerateGap, EscapedDomain,
                      HitCritical, InducedBranch, InducingTimeNotFound,
                      IntervalMap, MapSequence, MarkovPartition, NotMonotone,
                      affine_map, assemble_markov, bisect_preimage,
                      build_partition, constant_sequence, cross_ratio,
                      cross_ratio_operator, doubling_map,
                      fit_cross_ratio_constant, inducing_time, inducing_times,
                      logistic_map, moebius_map, monotone_scale,
                      monotonicity_partition, quadratic_map, summability_stat,
                      track_branch, twowell_map)
from fiberdyn import branches, markov
from fiberdyn.branches import LANE_BATCH
from fiberdyn.markov import ENDPOINT_TOL
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
        batch = list(inducing_times(logistic, part, xs, 6))
        for x, got in zip(xs, batch):
            try:
                want = inducing_time(logistic, part, x, 6)
            except (HitCritical, InducingTimeNotFound, ValueError) as ex:
                assert type(got) is type(ex) and str(got) == str(ex)
            else:
                assert got == want
        assert sum(isinstance(r, tuple) for r in batch) >= 250
        assert isinstance(batch[-5], ValueError)

    def test_anchor_outside_domain_fails_first(self):
        # the walk would give up at k_max = 1 for these anchors; the domain
        # check answers them before any walk
        m = doubling_map()
        part = MarkovPartition.from_endpoints(m, (0.0, 0.5, 1.0), check=False)
        got = list(inducing_times(m, part, [1.7, -0.3], N=1, k_max=1))
        assert [(type(g), str(g)) for g in got] == [
            (ValueError, "anchor must be interior to the domain")] * 2
        for x in (1.7, -0.3):
            with pytest.raises(ValueError, match="interior to the domain"):
                inducing_time(m, part, x, N=1, k_max=1)

    def test_reads_one_batch_at_a_time(self, logistic, monkeypatch):
        part = build_partition(logistic, 1)
        scales = []
        monkeypatch.setattr(markov, "monotone_scale",
                            lambda m, p: scales.append(1) or 6)
        read = []

        def points(n):
            for x in make_generator(53).uniform(0.0, 1.0, n).tolist():
                read.append(x)
                yield x

        found = inducing_times(logistic, part, points(2 * LANE_BATCH + 5),
                               k_max=8)
        next(found)
        assert (len(read), len(scales)) == (LANE_BATCH, 1)
        assert len(list(found)) == 2 * LANE_BATCH + 4
        assert (len(read), len(scales)) == (2 * LANE_BATCH + 5, 1)
        # no point needs N when every anchor is rejected before the walk
        assert all(isinstance(r, ValueError) for r in
                   inducing_times(logistic, part, [0.5, 1.5, 0.0]))
        assert len(scales) == 1

    def test_screen_matches_the_per_point_form(self, logistic):
        # the endpoint and domain checks, on points where their tolerances
        # and comparisons decide, answer as near_endpoint and then
        # lo < x < hi do one point at a time
        # the second set leaves the domain ends off the endpoints, so they
        # reach the domain test
        dom = logistic.domain
        for part in (build_partition(logistic, 1),
                     MarkovPartition.from_endpoints(
                         logistic, (0.2, 0.5, 0.8), check=False)):
            xs = [dom.lo, dom.hi, math.nan, math.inf, -math.inf, 0.3,
                  float(np.nextafter(dom.lo, -1.0)),
                  float(np.nextafter(dom.hi, 2.0))]
            for e in (*part.endpoints, dom.lo, dom.hi):
                for d in (1e-12, 2e-12):
                    xs += [e + d, e - d, float(np.nextafter(e + d, 2.0)),
                           float(np.nextafter(e - d, -1.0))]
            got = list(inducing_times(logistic, part, xs, N=1, k_max=3))
            screened = 0
            for x, g in zip(xs, got):
                if markov._near(part.endpoints, x, 1e-12):
                    want = "x must be interior to a partition cell"
                elif not dom.lo < x < dom.hi:
                    want = "anchor must be interior to the domain"
                else:
                    assert not isinstance(g, ValueError), x
                    continue
                screened += 1
                assert (type(g), str(g)) == (ValueError, want), x
            assert 10 < screened < len(xs)

    def test_partition_scale_failure_names_its_cap(self):
        # the doubling map has no critical point, so its monotone cells
        # never shrink; the failure is the depth cap n_cap, not k_max
        m = doubling_map()
        part = build_partition(m, 1)
        with pytest.raises(InducingTimeNotFound, match="n_cap=7") as info:
            monotone_scale(m, part, n_cap=7)
        assert "k_max" not in str(info.value)


def _oracle_inducing_time(m, part, x, N, k_max):
    """inducing_time for one point from the scalar primitives.

    track_branch to each depth k >= N until its image covers the cell of
    f^k(x) and both neighbouring cells within ENDPOINT_TOL, then the scalar
    pullback of both cell ends inside the depth-k branch.
    """
    if part.near_endpoint(x):
        raise ValueError("x must be interior to a partition cell")
    seq = constant_sequence(m)
    eps = part.endpoints
    for k in range(N, k_max + 1):
        br = track_branch(seq, x, k)
        ci = min(max(bisect.bisect_right(eps, seq.compose(x, k)) - 1, 0),
                 len(eps) - 2)
        if (br.img_lo <= eps[max(ci - 1, 0)] + ENDPOINT_TOL
                and br.img_hi >= eps[min(ci + 2, len(eps) - 1)]
                - ENDPOINT_TOL):
            lo, hi = sorted(bisect_preimage([m] * k, e, br.t_lo, br.t_hi)
                            for e in eps[ci:ci + 2])
            return k, (lo, hi), ci
    raise InducingTimeNotFound(k_max)


def _hand_set(m, inner):
    """m with a partition of the domain ends and `inner`, not invariant."""
    ends = (m.domain.lo, *inner, m.domain.hi)
    return m, MarkovPartition.from_endpoints(m, ends, check=False)


ORACLE_SYSTEMS = {
    "logistic": lambda: (logistic_map(), build_partition(logistic_map(), 1)),
    "quadratic 2.0": lambda: (quadratic_map(2.0),
                              build_partition(quadratic_map(2.0), 1)),
    "quadratic 1.7": lambda: _hand_set(quadratic_map(1.7),
                                       (-0.5, 0.0, 0.5, 1.2)),
    "twowell": lambda: _hand_set(twowell_map(), (0.2, 0.45, 0.55, 0.8)),
    "moebius": lambda: _hand_set(moebius_map(2.0), (0.25, 0.5, 0.75)),
}


class TestInducingOracle:
    """Every item of inducing_times equals the one-point scalar recipe."""

    @pytest.mark.parametrize("N, k_max", [(1, 3), (4, 12), (6, 40)])
    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_matches_scalar_recipe(self, name, N, k_max):
        m, part = ORACLE_SYSTEMS[name]()
        dom = m.domain
        xs = make_generator(54).uniform(dom.lo, dom.hi, 300).tolist()
        xs += [E1, 1.0 - E1]        # critical orbit of the logistic map
        # points at and onto the critical points: HitCritical at step 0
        # and 1, unless the partition has them as endpoints
        xs += [*m.critical_points, *(y for c in m.critical_points
                                     for y in markov._preimages(m, [c]))]
        got = list(inducing_times(m, part, xs, N, k_max))
        assert len(got) == len(xs)
        for x, g in zip(xs, got):
            try:
                want = _oracle_inducing_time(m, part, x, N, k_max)
            except (HitCritical, InducingTimeNotFound, ValueError) as ex:
                assert (type(g), str(g)) == (type(ex), str(ex)), x
            else:
                assert g == want, x


def _monotone_scale_rebuilt(m, part, n_cap=30):
    """monotone_scale with every depth's partition built from scratch."""
    seq = constant_sequence(m)
    for n in range(1, n_cap + 1):
        cells = monotonicity_partition(seq, n).cells
        if max(hi - lo for lo, hi in cells) < part.min_len / 4.0:
            return n
    return None


class TestMonotoneScale:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_matches_rebuilt_partitions(self, logistic, depth):
        part = build_partition(logistic, depth)
        assert monotone_scale(logistic, part) == \
            _monotone_scale_rebuilt(logistic, part)

    @pytest.mark.parametrize("make, n_cap, levels", [
        (logistic_map, 30, 6),          # N = 6 is found at level 6
        (doubling_map, 7, 7),           # never shrinks: every level to n_cap
    ])
    def test_builds_each_level_once(self, monkeypatch, make, n_cap, levels):
        m = make()
        part = build_partition(m, 1)
        want = _monotone_scale_rebuilt(m, part, n_cap)
        maps_fetched = []
        map_at = MapSequence.map_at

        def counted(seq, j):
            maps_fetched.append(j)
            return map_at(seq, j)
        monkeypatch.setattr(MapSequence, "map_at", counted)
        if want is None:
            with pytest.raises(InducingTimeNotFound):
                monotone_scale(m, part, n_cap)
        else:
            assert monotone_scale(m, part, n_cap) == want
        # one map fetched per level built: N levels, not N(N+1)/2
        assert maps_fetched == list(range(levels))


@pytest.fixture(scope="module")
def certificate(logistic):
    part = build_partition(logistic, 1)
    return assemble_markov(logistic, part, seeds=2000, seed=1,
                           check_constancy=False)


class TestOnePartitionWalk:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_scale_and_cells_match_two_walks(self, logistic, depth):
        part = build_partition(logistic, depth)
        seq = constant_sequence(logistic)
        N, cells = markov._scale_and_cells(logistic, part, 30, 8)
        assert N == monotone_scale(logistic, part)
        assert [(c.lo, c.hi) for c in cells] == \
            list(monotonicity_partition(seq, 8).cells)

    def test_assembly_walks_the_levels_once(self, logistic, monkeypatch):
        # counted wherever it is bound, so a monotonicity_partition call
        # would count too
        walks = []
        inner = branches._partition_levels

        def counted(*a, **k):
            walks.append(a)
            return inner(*a, **k)
        for module in (branches, markov):
            monkeypatch.setattr(module, "_partition_levels", counted)
        part = build_partition(logistic, 1)
        cert = assemble_markov(logistic, part, seeds=200)
        assert len(walks) == 1
        assert cert.N == monotone_scale(logistic, part)


class TestLaneLoops:
    """What a Markov assembly spends on bisection loops and lane memory."""

    @pytest.mark.parametrize("depth, seeds, most", [(1, 200, 15),
                                                    (2, 2000, 79)])
    def test_one_loop_per_dependency_level(self, logistic, monkeypatch,
                                           depth, seeds, most):
        # 21 and 125 loops when each step's covered cells took a loop of
        # their own and LANE_BATCH was 2048, so that the 2,560 constancy
        # samples of depth 1 walked as 2,048 + 512
        loops = []
        inner = branches._bisect_lanes

        def counted(*args):
            loops.append(args[1].size)
            return inner(*args)
        monkeypatch.setattr(branches, "_bisect_lanes", counted)
        assemble_markov(logistic, build_partition(logistic, depth),
                        seeds=seeds, seed=5)
        assert len(loops) <= most

    def test_cells_take_one_loop_after_the_walk(self, monkeypatch):
        # inducing times 4 to 34: the covered cells of every step, 2,000
        # lanes, are pulled back in one ragged-depth loop once the walk
        # ends; with a cell loop at each step the walk took 17 loops
        loops = []
        inner = branches._bisect_lanes

        def counted(maps, target, lo, hi, depth, *rest):
            loops.append((depth.min(), depth.max()))
            return inner(maps, target, lo, hi, depth, *rest)
        monkeypatch.setattr(branches, "_bisect_lanes", counted)
        m, part = ORACLE_SYSTEMS["quadratic 1.7"]()
        xs = make_generator(54).uniform(m.domain.lo, m.domain.hi, 1000)
        got = list(inducing_times(m, part, xs.tolist(), 4, 40))
        assert len({g[0] for g in got if isinstance(g, tuple)}) > 10
        assert len(loops) <= 10
        assert [lo < hi for lo, hi in loops] == [False] * 9 + [True]

    def test_walk_memory_per_lane(self, logistic):
        # traced peak of one walk over LANE_BATCH anchors, above its
        # inputs: 380 B a lane when each answer was a tuple or an exception
        # and LANE_BATCH was 2048; 268 B with answers in columns at 4096
        part = build_partition(logistic, 1)
        xs = make_generator(7).uniform(0.0, 1.0, LANE_BATCH)
        xs = xs[~part.near_endpoint(xs)].tolist()
        N = monotone_scale(logistic, part)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            markov._induce(logistic, part, xs, N, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / len(xs) < 320


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

    def test_no_branch_certificate(self, logistic):
        # N > 1, so k_max = 1 finds no inducing time anywhere
        cert = assemble_markov(logistic, build_partition(logistic, 1),
                               seeds=50, k_max=1)
        assert cert.branches == ()
        assert cert.coverage == 0.0
        assert cert.K_hat == 1.0

    def test_failure_messages_print_plain_floats(self, logistic):
        # depth 2 has constancy failures; their sample points come from
        # np.linspace and must not print as np.float64(...)
        cert = assemble_markov(logistic, build_partition(logistic, 2),
                               seeds=200, seed=1)
        assert any("not constant" in f for f in cert.failures)
        assert not any("np." in f for f in cert.failures)
        assert not cert.constancy_ok

    def test_fault_injection_rejected_at_construction(self, logistic):
        with pytest.raises(ValueError, match="not forward invariant"):
            MarkovPartition.from_endpoints(logistic, (0.0, 0.3, 1.0))

    def test_largest_seed_certifies(self, logistic):
        # the distortion draws take seed + 1, which wraps to 0 here
        cert = assemble_markov(logistic, build_partition(logistic, 1),
                               seeds=50, seed=2**64 - 1,
                               check_constancy=False)
        assert cert.coverage > 0.99 and not cert.failures

    def test_int_parameter_certifies_as_its_float(self):
        # quadratic_map(2) has the domain (-2, 2); int endpoints would make
        # int pullback brackets that truncate every preimage
        certs = []
        for a in (2, 2.0):
            m = quadratic_map(a)
            certs.append(assemble_markov(m, build_partition(m, 1),
                                         seeds=300, seed=5))
        assert certs[0].branches == certs[1].branches
        assert certs[0].coverage == certs[1].coverage > 0.99


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

    @pytest.mark.parametrize("make, want", [
        (twowell_map, "1.211186076252971"),
        (moebius_map, "1.246043204512762e-06")])
    def test_fitted_drop_constant_pinned(self, make, want):
        assert repr(fit_cross_ratio_constant(make(), 300, 3)) == want


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

    def test_every_probe_escaping_raises(self, logistic):
        # no branch covers (0.96, 1], and every 50-step orbit visits it
        branches = (InducedBranch(0.0, 0.96, 1, 0),)
        for seed in (1, 2, 3):
            with pytest.raises(EscapedDomain, match="every probe escaped"):
                summability_stat(branches, logistic, 50, 40, seed)

    def test_lanes_match_one_probe_at_a_time(self, logistic):
        # any branch list will do; (0.40, 0.44] is left out so some escape
        ends = np.linspace(0.0, 1.0, 26).tolist()
        branches = [InducedBranch(lo, hi, 1 + j % 3, j)
                    for j, (lo, hi) in enumerate(zip(ends, ends[1:]))
                    if j != 10]
        seq = constant_sequence(logistic)
        for seed, orbit_len, probes in ((1, 50, 40), (4, 7, 13)):
            rng = make_generator(seed)
            means, escaped = [], 0
            for _ in range(probes):
                x = float(rng.uniform(0.0, 1.0))
                ks = []
                for _ in range(orbit_len):
                    i = markov._branch_at([b.lo for b in branches],
                                          [b.hi for b in branches], x)
                    if i < 0:
                        break
                    ks.append(branches[i].time)
                    x = float(seq.compose(x, branches[i].time))
                else:
                    means.append(sum(ks) / len(ks))
                    continue
                escaped += 1
            assert 0 < escaped < probes
            st = summability_stat(branches, logistic, orbit_len, probes, seed)
            assert st.mean_time == float(np.mean(means))
            assert st.dispersion == float(np.std(means))
            assert st.escaped == escaped

    def test_low_coverage_rejected(self, logistic):
        branches = (InducedBranch(0.0, 0.25, 6, 0),)
        with pytest.raises(ValueError, match="cover"):
            summability_stat(branches, logistic, 10, 10, 1)


class TestSortedLookups:
    def test_near_matches_a_full_scan(self):
        rng = make_generator(61)
        pts = sorted(rng.uniform(0.0, 1.0, 40).tolist() + [0.5, 0.5 + 1e-12])
        for tol in (1e-12, 1e-9, 1e-3):
            queries = [0.0, 1.0, -1.0, 2.0, *rng.uniform(0.0, 1.0, 200)]
            for p in pts:
                queries += [p, p + tol, p - tol, p + 2 * tol, p - 2 * tol,
                            np.nextafter(p + tol, 2.0),
                            np.nextafter(p - tol, -1.0)]
            for v in queries:
                v = float(v)
                want = any(abs(p - v) <= tol for p in pts)
                assert markov._near(pts, v, tol) == want, (v, tol)
        assert not markov._near([], 0.3, 1.0)

    def test_branch_at_matches_a_full_scan(self):
        rng = make_generator(67)
        ends = np.sort(rng.uniform(0.0, 1.0, 60)).tolist()
        los, his = ends[0::2], ends[1::2]
        queries = rng.uniform(-0.1, 1.1, 500).tolist()
        for lo, hi in zip(los, his):
            queries += [lo, hi, hi + 1e-12, hi + 3e-12,
                        float(np.nextafter(lo, -1.0)), 0.5 * (lo + hi)]
        for x in queries:
            hits = [i for i, (lo, hi) in enumerate(zip(los, his))
                    if lo <= x <= hi + 1e-12]
            assert markov._branch_at(los, his, x) == (hits[0] if hits else -1)
        assert markov._branch_at([], [], 0.3) == -1

    def test_branches_at_matches_branch_at(self):
        rng = make_generator(67)
        ends = np.sort(rng.uniform(0.0, 1.0, 60)).tolist()
        los, his = ends[0::2], ends[1::2]
        queries = rng.uniform(-0.1, 1.1, 500).tolist()
        for lo, hi in zip(los, his):
            queries += [lo, hi, hi + 1e-12, hi + 3e-12,
                        float(np.nextafter(lo, -1.0)), 0.5 * (lo + hi)]
        got = markov._branches_at(np.array(los), np.array(his),
                                  np.array(queries))
        assert got.tolist() == [markov._branch_at(los, his, x)
                                for x in queries]
        empty = np.array([])
        assert markov._branches_at(empty, empty, np.array([0.3])).tolist() \
            == [-1]

    def test_near_endpoint_matches_near(self, logistic):
        # one float at a time and an array at once, as _near of the sorted
        # endpoints with a 1e-12 tolerance
        rng = make_generator(61)
        pts = sorted(rng.uniform(0.0, 1.0, 40).tolist() + [0.0, 0.5, 1.0])
        part = MarkovPartition.from_endpoints(logistic, pts, check=False)
        queries = [-1.0, 2.0, math.nan, math.inf, -math.inf,
                   *rng.uniform(0.0, 1.0, 200).tolist()]
        for p in pts:
            for d in (0.0, 1e-12, -1e-12, 2e-12, -2e-12):
                queries += [p + d, float(np.nextafter(p + d, 2.0)),
                            float(np.nextafter(p + d, -1.0))]
        want = [markov._near(pts, v, 1e-12) for v in queries]
        assert part.near_endpoint(np.array(queries)).tolist() == want
        assert [bool(part.near_endpoint(v)) for v in queries] == want

    @pytest.mark.parametrize("make", [logistic_map, twowell_map],
                             ids=["logistic", "twowell"])
    def test_endpoint_defects_match_a_full_scan(self, make):
        # f of each endpoint, one at a time, against every endpoint
        m = make()
        rng = make_generator(62)
        pts = sorted(rng.uniform(0.0, 1.0, 40).tolist() + [0.0, 0.5, 1.0])
        want = [float(np.abs(np.array(pts) - float(m.evaluator(e))).min())
                for e in pts]
        assert markov._endpoint_defects(m, pts) == want


class TestLogDerivN:
    """markov._walk against a scalar recipe of log |(f^k)'(x)| and f^k(x)."""

    @staticmethod
    def _two_walks(m, x, k):
        """The log-derivative sum, then f^k(x) by a second walk."""
        s = 0.0
        y = float(x)
        for _ in range(k):
            d = abs(float(m.derivative(y)))
            if d <= 1e-300:
                return -math.inf, None
            s += float(np.log(d))
            y = float(m.evaluator(y))
        return s, float(constant_sequence(m).compose(float(x), k))

    @pytest.mark.parametrize("make", [logistic_map, lambda: quadratic_map(1.8),
                                      moebius_map, twowell_map])
    def test_one_walk_matches_two(self, make):
        m = make()
        dom = m.domain
        xs = make_generator(71).uniform(dom.lo, dom.hi, 60).tolist()
        xs += [0.5 * (dom.lo + dom.hi), *m.critical_points]
        lanes = [(x, k) for x in xs for k in (0, 1, 2, 5, 13)]
        got, ends = markov._walk(m, *zip(*lanes))
        for (x, k), g, end in zip(lanes, got.tolist(), ends.tolist()):
            want, _ = self._two_walks(m, x, k)
            assert g == want, (x, k)
            assert end == float(constant_sequence(m).compose(x, k)), (x, k)

    def test_critical_orbit_gives_minus_infinity(self, logistic):
        got, ends = markov._walk(logistic, [0.5, 0.5, 0.3], [1, 2, 2])
        assert got[:2].tolist() == [-math.inf, -math.inf]
        assert ends.tolist() == [1.0, 0.0, float(
            constant_sequence(logistic).compose(0.3, 2))]
        # the log stays -inf after the flat step, also where |f'| = inf
        m = IntervalMap(logistic.domain, lambda x: 0.5 * x + 0.5,
                        lambda x: np.where(x < 0.5, 0.0, np.inf))
        got, ends = markov._walk(m, [0.2, 0.6], [3, 1])
        assert got.tolist() == [-math.inf, math.inf]
        assert [self._two_walks(m, 0.2, 3)[0],
                self._two_walks(m, 0.6, 1)[0]] == got.tolist()
        assert ends.tolist() == [0.9, 0.8]
        empty = markov._walk(logistic, [], [])
        assert [v.shape for v in empty] == [(0,), (0,)]
