import math
from types import SimpleNamespace

import numpy as np
import pytest

from fiberdyn import (CapExceeded, HitCritical, MarkovPartition,
                      bisect_preimage, bisect_preimages, branch_stats,
                      component_census, constant_sequence, fiber_branch_stats,
                      fiber_sequence, identity_map, inducing_times,
                      interval_images, logistic_map, moebius_map,
                      monotonicity_partition, quadratic_map, symbol_sequence,
                      track_branch, twowell_map, viana_skew)
from fiberdyn import branches
from fiberdyn.branches import HIT_TOL, compose_lanes, compose_maps, image_step
from fiberdyn.rng import make_generator

E1 = (2.0 - math.sqrt(2.0)) / 4.0


class TestTrackBranch:
    def test_depth_one_worked_values(self, logistic_seq):
        br = track_branch(logistic_seq, 0.25, 1)
        assert br.t_lo == pytest.approx(0.0, abs=1e-12)
        assert br.t_hi == pytest.approx(0.5, abs=1e-12)
        assert (br.img_lo, br.img_hi) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert br.r_history[0] == pytest.approx(0.25, abs=1e-12)

    def test_depth_two_worked_values(self, logistic_seq):
        br = track_branch(logistic_seq, 0.25, 2)
        assert br.t_lo == pytest.approx(E1, abs=1e-9)
        assert br.t_hi == pytest.approx(0.5, abs=1e-9)
        assert br.r_history == pytest.approx((0.25, 0.25), abs=1e-9)
        assert br.orientation == -1

    def test_anchor_on_critical_point(self, logistic_seq):
        with pytest.raises(HitCritical) as exc:
            track_branch(logistic_seq, 0.5, 1)
        assert exc.value.step == 0

    def test_deep_hit_reports_step(self, logistic_seq):
        # preimage of 1/2 hits the critical point at step 1
        with pytest.raises(HitCritical) as exc:
            track_branch(logistic_seq, E1, 5)
        assert exc.value.step == 1

    def test_critical_free_map_keeps_full_domain(self):
        seq = constant_sequence(moebius_map(2.0))
        br = track_branch(seq, 0.3, 6)
        assert br.t_lo == seq.domain.lo
        assert br.t_hi == seq.domain.hi
        assert br.lo_cut is None and br.hi_cut is None
        y = seq.compose(0.3, 6)
        assert br.r_history[-1] == pytest.approx(
            min(y - br.img_lo, br.img_hi - y), abs=1e-12)

    def test_endpoint_certificates(self, logistic_seq):
        rng = make_generator(42)
        for x in rng.uniform(0.0, 1.0, 50):
            try:
                br = track_branch(logistic_seq, float(x), 12)
            except HitCritical:
                continue
            for endpoint, cut in ((br.t_lo, br.lo_cut), (br.t_hi, br.hi_cut)):
                if cut is None:
                    assert endpoint in (0.0, 1.0)
                else:
                    val = logistic_seq.compose(endpoint, cut.level)
                    assert abs(val - cut.critical) <= 1e-9

    def test_monotone_on_interior_samples(self, logistic, logistic_seq):
        rng = make_generator(7)
        for x in rng.uniform(0.0, 1.0, 20):
            try:
                br = track_branch(logistic_seq, float(x), 10)
            except HitCritical:
                continue
            xs = np.linspace(br.t_lo, br.t_hi, 102)[1:-1]
            sign = np.ones(xs.size)
            for _ in range(10):
                sign *= np.sign(logistic.derivative(xs))
                xs = logistic.evaluator(xs)
            assert np.all(sign == sign[0])
            assert sign[0] == br.orientation

    def test_nesting_and_prefix_stability(self, logistic_seq):
        rng = make_generator(11)
        for x in rng.uniform(0.0, 1.0, 30):
            try:
                shallow = track_branch(logistic_seq, float(x), 8)
                deep = track_branch(logistic_seq, float(x), 9)
            except HitCritical:
                continue
            assert deep.t_lo >= shallow.t_lo
            assert deep.t_hi <= shallow.t_hi
            assert deep.r_history[:8] == shallow.r_history

    def test_matches_vectorized_image_recursion(self, logistic,
                                                logistic_seq):
        rng = make_generator(3)
        xs = rng.uniform(0.0, 1.0, 100)
        r, _, alive = branch_stats(logistic, xs, 15)
        for i, x in enumerate(xs):
            if not alive[i]:
                continue
            br = track_branch(logistic_seq, float(x), 15)
            assert np.allclose(r[:, i], br.r_history, atol=1e-12)

    def test_branch_field_invariants(self, logistic_seq):
        rng = make_generator(19)
        length = logistic_seq.domain.length
        for x in rng.uniform(0.0, 1.0, 40):
            try:
                br = track_branch(logistic_seq, float(x), 14)
            except HitCritical:
                continue
            assert br.t_lo <= br.x <= br.t_hi
            y = float(logistic_seq.compose(br.x, br.n))
            assert br.img_lo <= y <= br.img_hi
            assert all(0.0 <= r <= length for r in br.r_history)

    def test_anchor_must_be_interior(self, logistic_seq):
        with pytest.raises(ValueError):
            track_branch(logistic_seq, 0.0, 3)

    def test_conjugacy_oracle_for_branch_endpoints(self, logistic_seq):
        # h(t) = sin^2(pi t / 2) conjugates the tent map to the logistic
        # map, so the depth-n branch of x is h of the dyadic interval of
        # width 2^-n around h^-1(x), and every branch image is (0, 1)
        h = lambda t: math.sin(math.pi * t / 2.0) ** 2
        h_inv = lambda x: (2.0 / math.pi) * math.asin(math.sqrt(x))
        rng = make_generator(61)
        for x in rng.uniform(0.0, 1.0, 40):
            n = int(rng.integers(1, 13))
            try:
                br = track_branch(logistic_seq, float(x), n)
            except HitCritical:
                continue
            j = math.floor(2**n * h_inv(float(x)))
            assert br.t_lo == pytest.approx(h(j / 2**n), abs=1e-9)
            assert br.t_hi == pytest.approx(h((j + 1) / 2**n), abs=1e-9)
            assert br.img_lo == pytest.approx(0.0, abs=1e-9)
            assert br.img_hi == pytest.approx(1.0, abs=1e-9)
            y = float(logistic_seq.compose(float(x), n))
            assert br.r_history[-1] == pytest.approx(min(y, 1.0 - y),
                                                     abs=1e-9)


def _hit_step(call):
    """The step of the HitCritical that call() raises, or None."""
    try:
        call()
    except HitCritical as ex:
        return ex.step
    return None


class TestHitTolerance:
    """Every branch loop stops at |y - c| <= HIT_TOL, and nowhere else."""

    @pytest.mark.parametrize("family", ["logistic", "viana"])
    def test_loops_agree_at_the_boundary(self, family):
        if family == "logistic":
            m, c = logistic_map(), 0.5
            seq = constant_sequence(m)
            stats = lambda xs: branch_stats(m, xs, 1)
        else:
            skew, c, theta = viana_skew(), 0.0, 0.3
            seq = fiber_sequence(skew, theta)
            stats = lambda xs: fiber_branch_stats(
                skew, np.full(xs.size, theta), xs, 1)
        xs = np.array([v for a in (c - HIT_TOL, c + HIT_TOL)
                       for v in (np.nextafter(a, -1.0), a,
                                 np.nextafter(a, 2.0))])
        want = [abs(float(x) - c) <= HIT_TOL for x in xs]
        assert any(want) and not all(want)
        steps = [0 if w else None for w in want]
        assert [_hit_step(lambda: track_branch(seq, float(x), 1))
                for x in xs] == steps
        _, _, alive = stats(xs)
        assert (~alive).tolist() == want
        if family == "logistic":
            # a partition without c as an endpoint, so no anchor is
            # rejected as lying on one
            part = MarkovPartition.from_endpoints(m, (0.0, 1.0))
            got = list(inducing_times(m, part, xs, N=1, k_max=1))
            assert [g.step if isinstance(g, HitCritical) else None
                    for g in got] == steps


class TestSymbolSequence:
    def test_thresholding(self, logistic_seq):
        br = track_branch(logistic_seq, 0.25, 2)
        assert symbol_sequence(br, 0.1) == (1, 1)
        assert symbol_sequence(br, 0.3) == (0, 0)

    def test_threshold_above_domain_length(self, logistic_seq):
        br = track_branch(logistic_seq, 0.37, 6)
        assert symbol_sequence(br, 1.5) == (0,) * 6


class TestPartition:
    def test_depth_one(self, logistic_seq):
        part = monotonicity_partition(logistic_seq, 1)
        assert part.cells == ((0.0, 0.5), (0.5, 1.0))

    def test_depth_two_endpoints(self, logistic_seq):
        part = monotonicity_partition(logistic_seq, 2)
        expected = [0.0, E1, 0.5, 1.0 - E1, 1.0]
        got = sorted({e for lo, hi in part.cells for e in (lo, hi)})
        assert got == pytest.approx(expected, abs=1e-12)

    def test_critical_free_single_cell(self):
        seq = constant_sequence(moebius_map(2.0))
        part = monotonicity_partition(seq, 5)
        assert part.cells == ((0.0, 1.0),)

    def test_cap_exceeded(self, logistic_seq):
        with pytest.raises(CapExceeded):
            monotonicity_partition(logistic_seq, 10, cap=100)

    def test_cells_match_branches(self, logistic_seq):
        part = monotonicity_partition(logistic_seq, 6)
        rng = make_generator(5)
        for x in rng.uniform(0.0, 1.0, 100):
            try:
                br = track_branch(logistic_seq, float(x), 6)
            except HitCritical:
                continue
            lo, hi = next(c for c in part.cells if c[0] <= x <= c[1])
            assert abs(br.t_lo - lo) <= 1e-9
            assert abs(br.t_hi - hi) <= 1e-9

    def test_branch_images_track_ancestors(self, logistic_seq):
        part = monotonicity_partition(logistic_seq, 4)
        # depth-i ancestor image must contain the final cell's own image
        for (lo, hi), bimgs in zip(part.cells, part.branch_images):
            mid = 0.5 * (lo + hi)
            z = mid
            for i in range(1, 5):
                z = 4.0 * z * (1.0 - z)
                A, B = bimgs[i - 1]
                assert A - 1e-12 <= z <= B + 1e-12


class TestCensus:
    def test_depth_one_large_word_count(self, logistic_seq):
        # r_1(x) = min(f(x), 1 - f(x)) >= 0.1 carves one interval out of
        # each monotone half
        record = component_census(logistic_seq, 1, 0.1)
        assert record.count((1,)) == 2

    def test_huge_delta_gives_all_zero_words(self, logistic_seq):
        record = component_census(logistic_seq, 3, 1.5)
        assert set(record.words()) == {(0, 0, 0)}

    def test_total_measure_is_domain_length(self, logistic_seq):
        record = component_census(logistic_seq, 5, 0.1)
        assert record.total_measure() == pytest.approx(1.0, abs=1e-6)

    def test_census_agrees_with_branch_symbols(self, logistic_seq):
        record = component_census(logistic_seq, 4, 0.08)
        rng = make_generator(13)
        checked = 0
        for x in rng.uniform(0.0, 1.0, 60):
            try:
                br = track_branch(logistic_seq, float(x), 4)
            except HitCritical:
                continue
            word = symbol_sequence(br, 0.08)
            # skip anchors within the guard band of the threshold
            if any(abs(r - 0.08) < 1e-7 for r in br.r_history):
                continue
            comps = record.components.get(word, ())
            assert any(lo - 1e-9 <= x <= hi + 1e-9 for lo, hi in comps)
            checked += 1
        assert checked >= 30

    def test_claim_factor_small_depth(self, logistic_seq):
        # one critical point: prefix components split by at most 3(p+1) = 6
        records = {n: component_census(logistic_seq, n, 0.1)
                   for n in range(1, 6)}
        for s in range(1, 5):
            for word in records[s].components:
                child0 = records[s + 1].count(word + (0,))
                child1 = records[s + 1].count(word + (1,))
                assert child0 + child1 <= 6 * records[s].count(word)

    def test_interval_images_requires_monotone(self, logistic_seq):
        with pytest.raises(ValueError):
            interval_images(logistic_seq, 0.4, 0.6, 1, 1)

    def test_interval_images_counts_clean_steps(self, logistic_seq):
        out, clean = interval_images(logistic_seq, 0.52, 0.53, 1, 3)
        assert clean == len(out)
        for _, lo, hi in out:
            assert lo < hi


# ---------------------------------------------------------------------------
# batched pullback: lane-by-lane equality with the scalar primitives
# ---------------------------------------------------------------------------

@pytest.fixture
def lane_loops(monkeypatch):
    """The lane count of every _bisect_lanes call."""
    runs = []
    inner = branches._bisect_lanes

    def spy(maps, target, *rest):
        runs.append(target.size)
        return inner(maps, target, *rest)
    monkeypatch.setattr(branches, "_bisect_lanes", spy)
    return runs


@pytest.fixture
def no_scalar_cut(monkeypatch):
    """Send every open lane through the lane loop, however few."""
    monkeypatch.setattr(branches, "SCALAR_LANES", 0)


PULLBACK_SYSTEMS = {
    "logistic": lambda: constant_sequence(logistic_map()),
    "twowell": lambda: constant_sequence(twowell_map()),
    "quadratic": lambda: constant_sequence(quadratic_map(1.7)),
    "moebius": lambda: constant_sequence(moebius_map(2.0)),
    "viana fiber": lambda: fiber_sequence(viana_skew(), 0.3),
}


class TestBatchedPullback:
    @pytest.mark.parametrize("name", sorted(PULLBACK_SYSTEMS))
    @pytest.mark.parametrize("depth", [0, 1, 3, 6])
    def test_bisect_preimages_matches_scalar(self, name, depth):
        seq = PULLBACK_SYSTEMS[name]()
        dom = seq.domain
        maps = [seq.map_at(j) for j in range(depth)]
        rng = make_generator(depth)
        los = rng.uniform(dom.lo, dom.hi, 120)
        his = np.minimum(los + rng.uniform(0.0, 0.3, 120) * dom.length,
                         dom.hi)
        # collapsed brackets: no float splits them
        his[:10] = np.nextafter(los[:10], np.inf)
        # targets run past the domain, so some lie outside [F(lo), F(hi)]
        targets = rng.uniform(dom.lo - 0.2 * dom.length,
                              dom.hi + 0.2 * dom.length, 120)
        # targets attained inside the bracket
        targets[10:60] = seq.compose(0.5 * (los[10:60] + his[10:60]), depth)
        got = bisect_preimages(maps, targets, los, his)
        want = [bisect_preimage(maps, float(t), float(lo), float(hi))
                for t, lo, hi in zip(targets, los, his)]
        assert got.tolist() == want

    def test_bisect_preimages_broadcasts_and_handles_no_maps(
            self, logistic_seq, no_scalar_cut):
        assert bisect_preimages([], [0.3, 0.7], 0.0, 1.0).tolist() == \
            [0.3, 0.7]
        maps = [logistic_seq.map_at(0)] * 2
        got = bisect_preimages(maps, [0.3, 0.7], 0.0, 0.5)
        assert got.tolist() == [bisect_preimage(maps, t, 0.0, 0.5)
                                for t in (0.3, 0.7)]
        assert bisect_preimages(maps, [], [], []).size == 0

    def test_bisect_preimages_residual_equal_to_tolerance(self,
                                                          no_scalar_cut):
        # dyadic values make residuals hit value_tol exactly: 0.875 stops
        # before the loop (at hi), 0.625 at the first midpoint
        maps = [identity_map()]
        targets = [0.875, 0.625]
        got = bisect_preimages(maps, targets, 0.0, 1.0, value_tol=0.125)
        want = [bisect_preimage(maps, t, 0.0, 1.0, value_tol=0.125)
                for t in targets]
        assert got.tolist() == want == [1.0, 0.5]


class TestPerLaneDepths:
    """Lane i of a ragged call equals the scalar call through maps[:d_i]."""

    @pytest.mark.parametrize("name", sorted(PULLBACK_SYSTEMS))
    def test_bisect_preimages_matches_scalar(self, name, monkeypatch):
        # a batch of 7 lanes, so the depth-sorted lanes span many batches
        monkeypatch.setattr(branches, "LANE_BATCH", 7)
        seq = PULLBACK_SYSTEMS[name]()
        dom = seq.domain
        maps = [seq.map_at(j) for j in range(6)]
        rng = make_generator(71)
        size = 150
        depths = rng.integers(0, 7, size)
        depths[:4] = (0, 0, 3, 6)
        los = rng.uniform(dom.lo, dom.hi, size)
        his = np.minimum(los + rng.uniform(0.0, 0.3, size) * dom.length,
                         dom.hi)
        his[:12] = los[:12]                               # one float
        his[12:20] = np.nextafter(los[12:20], np.inf)     # no float between
        # targets past the domain stop by exhaustion; targets attained
        # inside the bracket mostly stop by residual
        targets = rng.uniform(dom.lo - 0.2 * dom.length,
                              dom.hi + 0.2 * dom.length, size)
        targets[20:100] = [compose_maps(maps[:d], 0.5 * (lo + hi)) for d, lo,
                           hi in zip(depths[20:100].tolist(),
                                     los[20:100].tolist(),
                                     his[20:100].tolist())]
        got = bisect_preimages(maps, targets, los, his, depths=depths)
        want = np.array([bisect_preimage(maps[:d], t, lo, hi) for d, t, lo, hi
                         in zip(depths.tolist(), targets.tolist(),
                                los.tolist(), his.tolist())])
        assert got.tobytes() == want.tobytes()
        # both stopping rules are met, each at several depths
        residual = np.array([abs(compose_maps(maps[:d], t) - v) for d, t, v
                             in zip(depths.tolist(), got.tolist(),
                                    targets.tolist())])
        moved = (los != his) & (depths > 0)
        by_residual = set(depths[moved & (residual <= 1e-13)].tolist())
        by_exhaustion = set(depths[moved & (residual > 1e-13)].tolist())
        assert len(by_residual) >= 3 and len(by_exhaustion) >= 3
        assert got[:2].tolist() == targets[:2].tolist()   # depth 0
        assert got[2:4].tolist() == los[2:4].tolist()     # one float

    def test_compose_lanes_matches_scalar(self, twowell):
        maps = [twowell] * 5
        rng = make_generator(73)
        xs = rng.uniform(0.0, 1.0, 60)
        depths = rng.integers(0, 6, 60)
        got = compose_lanes(maps, xs, depths=depths)
        assert got.tolist() == [compose_maps(maps[:d], x) for d, x
                                in zip(depths.tolist(), xs.tolist())]
        assert compose_lanes(maps, xs).tolist() == \
            compose_lanes(maps, xs, depths=np.full(60, 5)).tolist()

    def test_compose_ascending_never_writes_its_argument(self, twowell):
        # a first map that returns its argument (or a view of it), then a
        # suffix write; a depth-0 lane; no maps: the result is a new array
        same = SimpleNamespace(evaluator=lambda x: x)
        view = SimpleNamespace(evaluator=lambda x: x[...])
        xs = np.array([0.1, 0.2, 0.3])
        fx = twowell.evaluator(xs)
        for maps, depths, want in (
                ([same, twowell], [1, 2, 2], [xs[0], fx[1], fx[2]]),
                ([view, twowell], [1, 2, 2], [xs[0], fx[1], fx[2]]),
                ([twowell], [0, 1, 1], [xs[0], fx[1], fx[2]]),
                ([same], None, xs), ([], None, xs),
                ([twowell], None, fx)):
            got = branches._compose_ascending(
                maps, xs, None if depths is None else np.array(depths))
            assert got.tolist() == list(want)
            assert xs.tolist() == [0.1, 0.2, 0.3]
            assert not np.shares_memory(got, xs)

    def test_census_pulls_back_once_a_level(self, logistic_seq, lane_loops):
        # partition levels 2-8 take at most one loop each (level 1 pulls
        # back through no map, a level with fewer than SCALAR_LANES open
        # lanes none), and the crossings of all 8 depths one more
        component_census(logistic_seq, 8, 0.1)
        assert len(lane_loops) <= 8


class TestImageStep:
    """The lane image step cuts where track_branch cuts."""

    def test_twowell_cuts_match_track_branch(self, twowell):
        # four critical points, so a lane may have several on each side;
        # every lane follows its own images, step by step, next to the
        # depth-(j + 1) branch of track_branch
        seq = constant_sequence(twowell)
        cps = twowell.critical_points
        assert len(cps) == 4
        xs = make_generator(17).uniform(0.0, 1.0, 60)
        a, b, y = np.zeros(xs.size), np.ones(xs.size), xs.copy()
        dead = np.zeros(xs.size, dtype=bool)
        cut_lanes = 0
        for j in range(5):
            hit, lo, hi, fa, fb, fy = image_step(twowell.evaluator, cps,
                                                 a, b, y)
            dead |= hit
            for i, x in enumerate(xs.tolist()):
                try:
                    br = track_branch(seq, x, j + 1)
                except HitCritical:
                    assert dead[i]
                    continue
                assert not dead[i]
                got = ([lo[i]] if lo[i] != a[i] else []) + \
                    ([hi[i]] if hi[i] != b[i] else [])
                want = sorted(cut.critical for cut in (br.lo_cut, br.hi_cut)
                              if cut is not None and cut.level == j)
                assert got == want
                cut_lanes += len(got) == 2
                assert (min(fa[i], fb[i]), max(fa[i], fb[i])) == \
                    (br.img_lo, br.img_hi)
                assert fy[i] == float(seq.compose(x, j + 1))
            a, b, y = np.minimum(fa, fb), np.maximum(fa, fb), fy
        assert cut_lanes > 0

    def test_lane_shaped_map_calls(self, twowell):
        # lo, hi and y go through the step map one at a time, each of y's
        # shape: no (3, lanes) stack is built
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return twowell.evaluator(x)

        y = make_generator(5).uniform(0.0, 1.0, 40)
        a, b = np.zeros(y.size), np.ones(y.size)
        hit, lo, hi, fa, fb, fy = image_step(f, twowell.critical_points,
                                             a, b, y)
        assert calls and all(shape == y.shape for shape in calls)
        assert fa.tolist() == twowell.evaluator(lo).tolist()
        assert fb.tolist() == twowell.evaluator(hi).tolist()
        assert fy.tolist() == twowell.evaluator(y).tolist()

    def test_nearest_cut_on_each_side(self, twowell):
        cps = twowell.critical_points
        # the whole domain around points in every gap between critical
        # points, and points on and next to each critical point
        ys = [0.1, 0.3, 0.47, 0.48, 0.6, 0.9]
        for c in cps:
            ys += [np.nextafter(c - HIT_TOL, -1.0), c - HIT_TOL, c,
                   c + HIT_TOL, np.nextafter(c + HIT_TOL, 2.0)]
        y = np.array(ys)
        a, b = np.zeros(y.size), np.ones(y.size)
        hit, lo, hi, *_ = image_step(twowell.evaluator, cps, a, b, y)
        for i, v in enumerate(ys):
            assert hit[i] == any(abs(v - c) <= HIT_TOL for c in cps)
            assert lo[i] == max((c for c in cps if c < v), default=0.0)
            assert hi[i] == min((c for c in cps if c > v), default=1.0)


    def test_wide_logistic_cloud_matches_the_where_rule(self, logistic):
        # 10^4 lanes with branch images [a, b] around y: the integer-mask
        # cuts give the bits of the np.where rule, step after step
        def where_step(f, cps, a, b, y):
            hit = np.zeros(np.shape(y), dtype=bool)
            lo, hi = a, b
            for c in cps:
                hit |= np.abs(y - c) <= HIT_TOL
                lo = np.where((lo < c) & (c < y), c, lo)
                hi = np.where((y < c) & (c < hi), c, hi)
            return (hit, lo, hi) + tuple(np.asarray(f(v), dtype=float)
                                         for v in (lo, hi, y))

        rng = make_generator(41)
        y = rng.uniform(0.0, 1.0, 10**4)
        a = y * rng.uniform(0.0, 1.0, y.size)
        b = y + (1.0 - y) * rng.uniform(0.0, 1.0, y.size)
        y[:3] = (0.5, 0.5 + HIT_TOL, 0.25)
        for _ in range(6):
            got = image_step(logistic.evaluator, logistic.critical_points,
                             a, b, y)
            want = where_step(logistic.evaluator, logistic.critical_points,
                              a, b, y)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
            hit, lo, hi, fa, fb, y = got
            assert 0 < np.count_nonzero(lo != a) + np.count_nonzero(hi != b)
            a, b = np.minimum(fa, fb), np.maximum(fa, fb)


class TestSelect:
    """The integer-mask select of image_step is np.where, bit for bit."""

    SPECIAL = np.array([0x7FF8000000000001, 0x7FF80000000000AB,
                        0xFFF8000000000002 - 2**64, 0x7FF0000000000003,
                        0x0000000000000001, 0x800FFFFFFFFFFFFF - 2**64,
                        0x0000000000000000, 0x8000000000000000 - 2**64,
                        0x7FF0000000000000, 0xFFF0000000000000 - 2**64],
                       dtype=np.int64).view(np.float64)

    def lanes(self, rng, n):
        v = rng.uniform(-2.0, 2.0, n)
        at = rng.choice(n, n // 4, replace=False)
        v[at] = self.SPECIAL[rng.integers(0, self.SPECIAL.size, at.size)]
        return v

    @pytest.mark.parametrize("kind", ["random", "true", "false"])
    def test_matches_where(self, kind):
        rng = make_generator(43)
        n = 10**4
        mask = {"random": rng.uniform(0.0, 1.0, n) < 0.5,
                "true": np.ones(n, dtype=bool),
                "false": np.zeros(n, dtype=bool)}[kind]
        a, b = self.lanes(rng, n), self.lanes(rng, n)
        firsts = [a, *self.SPECIAL.tolist(), 0.5, -0.0, float("inf")]
        for first in firsts:
            got = branches._select(mask, first, b)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == np.where(mask, first, b).tobytes()


class TestOneFloatBracket:
    """A bracket with lo == hi returns lo and composes no map."""

    @staticmethod
    def _counted(seq, depth):
        """The first `depth` maps of seq, counting evaluated points."""
        points = []

        def wrap(m):
            def evaluator(x):
                points.append(np.size(x))
                return m.evaluator(x)
            return SimpleNamespace(evaluator=evaluator)
        return [wrap(seq.map_at(j)) for j in range(depth)], points

    def test_collapsed_bracket_costs_no_map_call(self, logistic_seq):
        maps, points = self._counted(logistic_seq, 5)
        assert bisect_preimage(maps, 0.7, 0.3, 0.3) == 0.3
        assert bisect_preimages(maps, [0.7, 0.1], [0.3, 0.9],
                                [0.3, 0.9]).tolist() == [0.3, 0.9]
        assert points == []

    def test_mixed_batch_matches_scalar(self, logistic_seq, no_scalar_cut):
        maps, points = self._counted(logistic_seq, 4)
        rng = make_generator(9)
        los = rng.uniform(0.0, 1.0, 40)
        his = los.copy()                                  # 0-9 collapsed
        his[10:20] = np.nextafter(los[10:20], 1.0)        # no float between
        his[20:40] = np.minimum(los[20:40] + rng.uniform(0.0, 0.3, 20), 1.0)
        los, his = np.append(los, -0.0), np.append(his, 0.0)
        targets = rng.uniform(0.0, 1.0, los.size)
        targets[20:30] = logistic_seq.compose(0.5 * (los[20:30]
                                                     + his[20:30]), 4)
        got = bisect_preimages(maps, targets, los, his)
        batch_points = sum(points)
        want = np.array([bisect_preimage(maps, t, lo, hi) for t, lo, hi
                         in zip(targets.tolist(), los.tolist(),
                                his.tolist())])
        assert got.tobytes() == want.tobytes()       # -0.0 stays -0.0
        assert np.signbit(got[-1])
        # only the 30 open lanes were composed
        points.clear()
        bisect_preimages(maps, targets[10:40], los[10:40], his[10:40])
        assert batch_points == sum(points) > 0

    def test_no_maps_returns_target(self):
        # with nothing to compose the target is its own preimage, collapsed
        # bracket or not
        assert bisect_preimage([], 0.7, 0.3, 0.3) == 0.7
        assert bisect_preimages([], [0.7, 0.1], [0.3, 0.5],
                                [0.3, 0.6]).tolist() == [0.7, 0.1]


class TestScalarCut:
    """Fewer open lanes than SCALAR_LANES take the scalar rule, lane by lane;
    the cut itself makes one lane loop."""

    def test_lanes_under_the_cut_make_no_lane_loop(self, logistic_seq,
                                                   lane_loops):
        maps = [logistic_seq.map_at(j) for j in range(3)]
        n = branches.SCALAR_LANES
        los = np.linspace(0.01, 0.4, n)
        his, targets = los + 0.05, np.full(n, 0.3)
        # one open lane short of the cut; collapsed lanes are not open
        got = bisect_preimages(maps, np.append(targets[1:], 0.3),
                               np.append(los[1:], 0.5),
                               np.append(his[1:], 0.5))
        assert lane_loops == []
        assert got.tolist() == [bisect_preimage(maps, 0.3, lo, hi) for lo, hi
                                in zip(los[1:].tolist(), his[1:].tolist())
                                ] + [0.5]
        bisect_preimages(maps, targets, los, his)
        assert lane_loops == [n]


def nan_below(c):
    """x -> x on [0, 1], NaN below c: residuals are NaN on part of the
    domain."""
    return SimpleNamespace(
        evaluator=lambda x: np.where(np.less(x, c), np.nan, x))


class TestStopMask:
    """Lanes that stop early (a NaN residual from the start, a NaN target, a
    reversed bracket, a signed-zero end) equal the scalar rule, both in a
    lane loop and under the scalar cut."""

    NAN = float("nan")
    # (lo, hi, target)
    CASES = [(0.1, 0.4, 0.5),      # lo in the NaN part of nan_below(0.25)
             (0.1, 0.2, 0.5),      # both ends there
             (0.3, 0.45, 0.8),
             (0.3, 0.45, NAN),     # NaN target
             (0.1, 0.4, NAN),
             (0.4, 0.3, 0.8),      # reversed
             (0.3, 0.1, 0.5),
             (-0.0, 0.3, 0.5),     # signed zeros
             (0.3, -0.0, 0.5),
             (0.0, -0.0, 0.5),     # collapsed: returns lo, sign and all
             (-0.0, 0.0, 0.5)]

    @pytest.mark.parametrize("first", ["logistic", "nan below 0.25"])
    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_matches_scalar(self, logistic, first, wide, lane_loops):
        maps = [logistic if first == "logistic" else nan_below(0.25),
                logistic]
        copies = 4 * branches.SCALAR_LANES if wide else 1
        los, his, targets = (np.tile(v, copies) for v in zip(*self.CASES))
        got = bisect_preimages(maps, targets, los, his)
        want = np.array([bisect_preimage(maps, t, lo, hi) for lo, hi, t
                         in zip(los.tolist(), his.tolist(),
                                targets.tolist())])
        assert got.tobytes() == want.tobytes()
        assert bool(lane_loops) == wide
        assert np.signbit(got[10::len(self.CASES)]).all()

    @pytest.mark.parametrize("first", ["logistic", "nan below 0.25"])
    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_nan_tolerance_matches_scalar(self, logistic, first, wide,
                                          lane_loops):
        # no residual is <= NaN: the scalar rule bisects to exhaustion, and
        # so must every lane of a lane loop
        maps = [logistic if first == "logistic" else nan_below(0.25),
                logistic]
        copies = 4 * branches.SCALAR_LANES if wide else 1
        los, his, targets = (np.tile(v, copies) for v in zip(*self.CASES))
        got = bisect_preimages(maps, targets, los, his, value_tol=self.NAN)
        want = np.array([bisect_preimage(maps, t, lo, hi, value_tol=self.NAN)
                         for lo, hi, t in zip(los.tolist(), his.tolist(),
                                              targets.tolist())])
        assert got.tobytes() == want.tobytes()
        assert bool(lane_loops) == wide
