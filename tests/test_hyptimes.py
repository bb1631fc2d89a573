import math

import numpy as np
import pytest

from fiberdyn import (CurveGraph, DomainCollapsed, HitCritical,
                      InvalidConstants, NotAGraph, NotHyperbolicLike,
                      PlissQuery, curve_growth_constants, fiber_branch_stats,
                      hyperbolic_like_times, pliss_times, probe_neighborhood,
                      propagate_curve, slope_envelope, symbol_sequence,
                      track_branch, viana_skew)
from fiberdyn import hyptimes
from fiberdyn.experiments.cli import main as cli_main
from fiberdyn.rng import make_generator


def brute_force_pliss(values, c1):
    """Check the defining suffix-sum condition for every index pair."""
    n = len(values)
    excess = np.concatenate([[0.0], np.cumsum(np.asarray(values) - c1)])
    out = []
    for ni in range(1, n + 1):
        if all(excess[ni] >= excess[k] for k in range(ni)):
            out.append(ni)
    return tuple(out)


def _per_index_pliss(values, c1):
    """The per-index scan pliss_times ran before its cumulative pass."""
    indices = []
    excess = 0.0       # S_j - c1 * j
    running_max = 0.0  # over 0 <= k < j
    for j, v in enumerate(values, start=1):
        if excess > running_max:
            running_max = excess
        excess += v - c1
        if excess >= running_max:
            indices.append(j)
    return tuple(indices)


class TestPliss:
    def test_worked_example(self):
        res = pliss_times(PlissQuery((3, 0, 3, 0), 1.0, 1.5, 3.0))
        assert res.indices == (1, 3)
        assert res.density == 0.5
        assert res.zeta == pytest.approx(0.25)
        assert res.guaranteed
        assert res.density >= res.zeta

    def test_constant_sequence_all_indices(self):
        res = pliss_times(PlissQuery((2.0,) * 9, 1.0, 1.5, 2.0))
        assert res.indices == tuple(range(1, 10))
        assert res.density == 1.0

    def test_all_zero_flagged(self):
        res = pliss_times(PlissQuery((0.0,) * 8, 0.5, 1.0, 2.0))
        assert res.indices == ()
        assert not res.guaranteed

    def test_invalid_constants(self):
        with pytest.raises(InvalidConstants):
            PlissQuery((1.0, 2.0), 1.5, 1.0, 3.0)
        with pytest.raises(InvalidConstants):
            PlissQuery((1.0, 2.0), 0.5, 4.0, 3.0)
        with pytest.raises(InvalidConstants):
            PlissQuery((5.0,), 0.5, 1.0, 3.0)

    def test_matches_brute_force(self):
        rng = make_generator(23)
        for _ in range(200):
            n = int(rng.integers(1, 201))
            vals = rng.uniform(0.0, 1.0, n)
            c1 = float(rng.uniform(0.05, 0.6))
            res = pliss_times(PlissQuery(tuple(vals), c1, c1 + 0.1, 1.1))
            assert res.indices == brute_force_pliss(vals, c1)

    def test_matches_per_index_loop(self):
        # dyadic values and thresholds add exactly, so suffix sums tie with
        # the running maximum and values sit on c1 itself; random uniform
        # values add with rounding, as the loop rounds them
        rng = make_generator(41)
        for trial in range(600):
            n = int(rng.integers(1, 120))
            if trial % 2:
                c1 = float(rng.integers(1, 8)) / 8
                vals = rng.integers(0, 9, n) / 8
            else:
                c1 = float(rng.uniform(0.05, 0.6))
                vals = rng.uniform(0.0, 1.0, n)
                vals[rng.uniform(size=n) < 0.2] = c1
            res = pliss_times(PlissQuery(tuple(vals), c1, c1 + 0.1, 1.1))
            assert res.indices == _per_index_pliss(vals.tolist(), c1), trial

    def test_density_guarantee(self):
        rng = make_generator(29)
        found = 0
        while found < 100:
            n = int(rng.integers(10, 200))
            vals = rng.uniform(0.0, 1.0, n)
            c2 = float(rng.uniform(0.2, 0.6))
            if vals.sum() < c2 * n:
                continue
            found += 1
            res = pliss_times(PlissQuery(tuple(vals), c2 / 2, c2, 1.0))
            assert res.guaranteed
            assert res.density >= res.zeta - 1e-12


class TestHyperbolicLikeTimes:
    def test_from_branch_history(self, logistic_seq):
        br = track_branch(logistic_seq, 0.25, 2)
        assert hyperbolic_like_times(br, 0.2) == (1, 2)

    def test_threshold_above_domain(self, logistic_seq):
        br = track_branch(logistic_seq, 0.37, 8)
        assert hyperbolic_like_times(br, 1.5) == ()

    def test_tiny_threshold_keeps_positive_entries(self, logistic_seq):
        br = track_branch(logistic_seq, 0.37, 8)
        expected = tuple(i for i, r in enumerate(br.r_history, 1) if r > 0)
        assert hyperbolic_like_times(br, 1e-15) == expected

    def test_consistent_with_symbols(self, logistic_seq):
        rng = make_generator(37)
        for x in rng.uniform(0, 1, 25):
            try:
                br = track_branch(logistic_seq, float(x), 10)
            except HitCritical:
                continue
            word = symbol_sequence(br, 0.15)
            ones = tuple(i for i, a in enumerate(word, 1) if a == 1)
            assert hyperbolic_like_times(br, 0.15) == ones

    def test_requires_positive_threshold(self, logistic_seq):
        br = track_branch(logistic_seq, 0.25, 2)
        with pytest.raises(ValueError):
            hyperbolic_like_times(br, 0.0)


class TestCurves:
    def test_decoupled_fiber_keeps_slope_zero(self):
        from fiberdyn import IntervalDomain, SkewProduct
        skew = SkewProduct(
            base_degree=16,
            fiber_coefficient=lambda t: 0.0 * t,
            fiber_step=lambda c, x: 0.5 * x + c,
            fiber_dx=lambda t, x: 0.5 + 0.0 * x + 0.0 * t,
            fiber_dtheta=lambda t, x: 0.0 * x + 0.0 * t,
            fiber_critical_points=(),
            fiber_domain=IntervalDomain(-0.5, 0.5),
        )
        cur = CurveGraph.horizontal(0.2, 0.0, 1.0, 129)
        env = slope_envelope(skew, cur, 30)
        assert np.all(env == 0.0)
        pieces = propagate_curve(skew, cur, 1)
        assert all(p.max_slope == 0.0 for p in pieces[0])

    def test_piece_count_tracks_base_degree(self, viana):
        cur = CurveGraph.horizontal(0.1, 0.0, 1.0, 257)
        pieces = propagate_curve(viana, cur, 2)
        assert len(pieces[0]) == 16
        assert len(pieces[1]) == 256

    def test_finite_difference_matches_transport(self, viana):
        cur = CurveGraph.horizontal(0.1, 0.0, 1.0, 257)
        pieces = propagate_curve(viana, cur, 3)
        env = slope_envelope(viana, cur, 3)
        for m, stage in enumerate(pieces):
            fd = max(p.max_slope for p in stage)
            assert fd == pytest.approx(env[m], rel=1e-3, abs=1e-6)

    def test_slope_bound_from_fitted_constants(self, viana):
        _, C1, _ = curve_growth_constants(viana, alpha=0.01)
        rng = make_generator(41)
        for _ in range(4):
            h = float(rng.uniform(-1.0, 1.0))
            s0 = float(rng.uniform(-0.01, 0.01))
            th = np.linspace(0.0, 1.0, 513)
            cur = CurveGraph(th, h + s0 * (th - 0.5),
                             slopes=np.full(513, s0))
            env = slope_envelope(viana, cur, 40)
            assert env.max() <= 1.1 * C1

    def test_slopes_default_to_finite_differences(self, viana):
        # on a straight line the finite-difference slopes are the exact ones
        th = np.linspace(0.0, 1.0, 257)
        xs = 0.3 + 0.004 * (th - 0.5)
        given = slope_envelope(viana, CurveGraph(th, xs,
                                                 slopes=np.full(257, 0.004)),
                               20)
        derived = slope_envelope(viana, CurveGraph(th, xs), 20)
        np.testing.assert_allclose(derived, given, rtol=1e-12, atol=0)

    def test_steep_curve_detected(self, viana):
        th = np.array([0.3, 0.3 + 1e-13, 0.3 + 2e-13])
        xs = np.array([-1.0, 0.0, 1.0])
        cur = CurveGraph(th, xs)
        with pytest.raises(NotAGraph):
            propagate_curve(viana, cur, 3)

    def test_arc_length_contraction_bound(self, viana):
        # source arc of each piece vs its image arc, through k base steps
        _, C1, C2 = curve_growth_constants(viana, alpha=0.01)
        cur = CurveGraph.from_function(
            lambda t: 0.1 + 0.01 * np.sin(2 * np.pi * t),
            dfn=lambda t: 0.02 * np.pi * np.cos(2 * np.pi * t),
            lo=0.2, hi=0.25, samples=513)
        k = 3
        pieces = propagate_curve(viana, cur, k)[-1]
        assert pieces
        for piece in pieces:
            src_th = piece.origin
            src_x = np.interp(src_th, cur.theta, cur.x)
            src_arc = float(np.sum(np.hypot(np.diff(src_th),
                                            np.diff(src_x))))
            bound = C2 * (16.0 ** -k) * piece.arc_length()
            assert src_arc <= bound * (1.0 + 1e-6)

    def test_theta_must_increase(self):
        with pytest.raises(ValueError):
            CurveGraph(np.array([0.0, 0.0, 0.1]), np.zeros(3))

    @pytest.mark.parametrize("d", [16, 3])
    def test_refinement_matches_per_segment_loop(self, monkeypatch, d):
        # refinement in rounds against the per-segment loop it replaced,
        # piece by piece and bit for bit, through three steps
        skew = viana_skew(d=d)
        sine = CurveGraph.from_function(
            lambda t: 0.1 + 0.01 * np.sin(2 * np.pi * t),
            dfn=lambda t: 0.02 * np.pi * np.cos(2 * np.pi * t),
            lo=0.2, hi=0.25, samples=513)
        th = np.linspace(0.61, 0.74, 40)
        arc = CurveGraph(th, -0.4 + 0.3 * (th - 0.61))
        # integer slopes and origin are interpolated as floats
        ints = CurveGraph(th, 0.1 + 0.0 * th, slopes=np.zeros(40, dtype=int),
                          origin=np.arange(40))
        for cur in (CurveGraph.horizontal(0.1, 0.0, 1.0, 257), sine, arc,
                    ints):
            got = propagate_curve(skew, cur, 3)
            with monkeypatch.context() as m:
                m.setattr(hyptimes, "_refine_for_step", _per_segment_refine)
                want = propagate_curve(skew, cur, 3)
            assert len(got) == len(want) == 3
            for stage, ref in zip(got, want):
                assert len(stage) == len(ref)
                for p, q in zip(stage, ref):
                    for name in ("theta", "x", "slopes", "origin"):
                        a, b = getattr(p, name), getattr(q, name)
                        assert (a is None and b is None
                                or np.array_equal(a, b)), name
        steep = CurveGraph(np.array([0.3, 0.3 + 1e-13, 0.3 + 2e-13]),
                           np.array([-1.0, 0.0, 1.0]))
        for refine in (hyptimes._refine_for_step, _per_segment_refine):
            with pytest.raises(NotAGraph):
                refine(skew, steep)


def _per_segment_refine(skew, piece):
    """hyptimes._refine_for_step as the loop over segments it was, one
    midpoint and two scalar fiber calls at a time; the reference for its
    rounds."""
    th = list(piece.theta)
    xs = list(piece.x)
    sl = list(piece.slopes) if piece.slopes is not None else None
    og = list(piece.origin)
    depth = [0] * (len(th) - 1)
    i = 0
    while i < len(th) - 1:
        ia = skew.fiber(th[i], xs[i])
        ib = skew.fiber(th[i + 1], xs[i + 1])
        wide_x = abs(ib - ia) > 1e-3
        wide_t = (th[i + 1] - th[i]) * skew.base_degree > 1.0 / 64
        if not (wide_x or wide_t):
            i += 1
            continue
        mid = 0.5 * (th[i] + th[i + 1])
        splittable = th[i] < mid < th[i + 1] and depth[i] < 42
        if not splittable:
            if wide_x:
                raise NotAGraph(
                    f"cannot refine segment at theta={th[i]!r} below float "
                    "resolution")
            i += 1
            continue
        frac = (mid - th[i]) / (th[i + 1] - th[i])
        th.insert(i + 1, mid)
        xs.insert(i + 1, xs[i] + frac * (xs[i + 1] - xs[i]))
        if sl is not None:
            sl.insert(i + 1, sl[i] + frac * (sl[i + 1] - sl[i]))
        og.insert(i + 1, og[i] + frac * (og[i + 1] - og[i]))
        depth[i:i + 1] = [depth[i] + 1, depth[i] + 1]
    return CurveGraph(np.array(th), np.array(xs),
                      np.array(sl) if sl is not None else None, np.array(og))


class TestProbe:
    def test_identity_iterate(self, viana):
        rep = probe_neighborhood(viana, (0.3, 0.2), 0, 0.3, grid=16)
        assert rep.K_hat == pytest.approx(1.0)
        assert rep.injective
        assert rep.covers_ball
        assert rep.delta1_hat == pytest.approx(rep.rho_prime, rel=1e-9)

    def test_centre_outside_the_box_does_not_cover(self, viana):
        # x lies below the trimmed fiber interval, so at k = 0 the image
        # box misses the image of z
        rep = probe_neighborhood(viana, (0.72, -1.74), 0, 0.3, grid=2)
        assert -1.74 < rep.fiber_lo
        assert not rep.covers_ball

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_iterate_rejected(self, viana, k):
        # k = -1 would run the k = 0 probe and report k = -1
        with pytest.raises(ValueError, match="k must be >= 0"):
            probe_neighborhood(viana, (0.3, 0.2), k, 0.3, grid=16)

    def test_not_hyperbolic_like(self, viana):
        # a point whose first branch image is thin on one side
        rng = make_generator(43)
        for _ in range(200):
            theta = float(rng.uniform(0, 1))
            x = float(rng.uniform(-1.5, 1.5))
            from fiberdyn import fiber_sequence
            try:
                br = track_branch(fiber_sequence(viana, theta), x, 6)
            except HitCritical:
                continue
            if br.r_history[-1] < 0.3:
                with pytest.raises(NotHyperbolicLike):
                    probe_neighborhood(viana, (theta, x), 6, 0.3)
                return
        pytest.fail("no sub-threshold point found")

    def test_collapsed_domain_is_named(self, viana, tmp_path, capsys):
        # the depth-120 fiber domain of x = 0.5 is the one float 0.5, so
        # nothing inside it can be trimmed or bisected
        with pytest.raises(DomainCollapsed,
                           match=r"depth-120 domain .* is one float"):
            probe_neighborhood(viana, (0.3, 0.5), 120, 0.1)
        rc = cli_main(["probe", "--family", "viana", "--theta", "0.3",
                       "--x", "0.5", "--k", "120", "--delta-tilde", "0.1",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "k exceeds float64 resolution" in capsys.readouterr().err

    def test_probe_at_hyperbolic_like_time(self, viana):
        rng = make_generator(47)
        th = rng.uniform(0, 1, 100)
        xs = rng.uniform(-1.5, 1.5, 100)
        r, _, _ = fiber_branch_stats(viana, th, xs, 12)
        hits = np.argwhere(r[7] >= 0.3)
        assert hits.size
        i = int(hits[0][0])
        rep32 = probe_neighborhood(viana, (th[i], xs[i]), 8, 0.3, grid=32)
        rep64 = probe_neighborhood(viana, (th[i], xs[i]), 8, 0.3, grid=64)
        for rep in (rep32, rep64):
            assert rep.injective
            assert math.isfinite(rep.K_hat) and rep.K_hat >= 1.0
            assert rep.delta1_hat > 0.0
        assert rep64.K_hat == pytest.approx(rep32.K_hat, rel=0.05)
        assert rep64.delta1_hat == pytest.approx(rep32.delta1_hat, rel=0.1)

    def test_report_serializes(self, tmp_path):
        rc = cli_main(["probe", "--family", "viana", "--theta", "0.3",
                       "--x", "0.2", "--k", "0", "--delta-tilde", "0.3",
                       "--grid", "8", "--out", str(tmp_path)])
        assert rc == 0
        import json
        payload = json.loads((tmp_path / "probe.json").read_text())
        for key in ("theta", "x", "k", "delta_tilde", "injective", "K_hat",
                    "delta1_hat", "grid"):
            assert key in payload


def _ray_cast(px, py, poly_x, poly_y):
    """Even-odd ray casting for one point, one edge at a time."""
    inside = False
    j = len(poly_x) - 1
    for i in range(len(poly_x)):
        if (poly_y[i] > py) != (poly_y[j] > py):
            t = (py - poly_y[j]) / (poly_y[i] - poly_y[j])
            if px < poly_x[j] + t * (poly_x[i] - poly_x[j]):
                inside = not inside
        j = i
    return inside


class TestInsidePolygon:
    def test_matches_scalar_ray_casting(self):
        rng = make_generator(53)
        for trial in range(24):
            n = int(rng.integers(3, 40))
            angles = rng.uniform(0.0, 2.0 * math.pi, n)
            if trial % 3:
                angles = np.sort(angles)       # star-shaped; else it crosses
            radii = rng.uniform(0.2, 1.0, n)
            pu, pv = radii * np.cos(angles), radii * np.sin(angles)
            if trial % 2:
                pv[::3] = pv[0]                # horizontal edges, shared ys
            px = np.concatenate([rng.uniform(-1.1, 1.1, 300), pu, pu + 1e-3])
            py = np.concatenate([rng.uniform(-1.1, 1.1, 300), pv, pv])
            got = hyptimes._inside_polygon(px, py, pu, pv)
            want = [_ray_cast(float(x), float(y), pu, pv)
                    for x, y in zip(px, py)]
            assert got.tolist() == want

    def test_square(self):
        pu = np.array([-1.0, 1.0, 1.0, -1.0])
        pv = np.array([-1.0, -1.0, 1.0, 1.0])
        got = hyptimes._inside_polygon([0.0, 0.99, 1.01, 0.0],
                                       [0.0, 0.5, 0.0, -1.5], pu, pv)
        assert got.tolist() == [True, True, False, False]


def _injective_by_loop(X):
    """probe_neighborhood's former per-column loop, the reference."""
    for col in X:
        order = np.argsort(col, kind="stable")
        for i1, i2 in zip(order, order[1:]):
            if abs(col[i1] - col[i2]) < 1e-9 and abs(int(i1) - int(i2)) > 1:
                return False
    return True


def _mesh(*pairs, grid=8):
    """A well-spread grid x grid mesh; pairs (j, i, v) set X[j, i] = v."""
    X = np.tile(np.linspace(-1.0, 1.0, grid), (grid, 1))
    for j, i, v in pairs:
        X[j, i] = v
    return X


class TestMeshInjective:
    @pytest.mark.parametrize("X, want", [
        (_mesh(), True),
        (_mesh((3, 6, -1.0 + 2.0 / 7)), False),           # X[3, 6] = X[3, 1]
        (_mesh((3, 2, -1.0 + 2.0 / 7)), True),            # X[3, 2] = X[3, 1]
        (_mesh((5, 0, 0.0), (5, 6, 1e-9)), True),         # gap exactly 1e-9
        (_mesh((5, 0, 0.0), (5, 6, np.nextafter(1e-9, 0.0))), False),
        (_mesh((2, 4, np.nan), (2, 6, np.nan)), True),
    ], ids=["no-collision", "non-adjacent", "adjacent-only", "gap-1e-9",
            "gap-below-1e-9", "nan"])
    def test_cases(self, X, want):
        assert _injective_by_loop(X) is want
        assert hyptimes._mesh_injective(X) is want

    def test_matches_loop_on_crowded_meshes(self):
        rng = make_generator(59)
        for trial in range(200):
            grid = int(rng.integers(2, 12))
            # few distinct values, so ties and near-ties are common
            X = rng.integers(0, grid, (grid, grid)) * (0.6e-9 + 0.1 * (trial % 2))
            X[:, ::2] += rng.uniform(-1e-9, 1e-9, X[:, ::2].shape)
            assert hyptimes._mesh_injective(X) is _injective_by_loop(X)

    def test_probe_mesh_flag(self, viana):
        rep = probe_neighborhood(viana, (0.3, 0.5), 3, 0.1)
        assert rep.injective
