"""The base orbit's state: theta enters by `SkewProduct.base_state`, and every
skew kernel carries the state `base_rows` hands it without reading it."""

import math

import numpy as np
import pytest

from fiberdyn import expansion, maps
from fiberdyn.expansion import (fiber_branch_stats, ftle_fiber, ftle_full,
                                measure_AY_decay)
from fiberdyn.hyptimes import probe_neighborhood
from fiberdyn.maps import fiber_sequence, viana_skew
from fiberdyn.measures import empirical_measure
from fiberdyn.rng import make_generator


def _ftle_full(skew):
    return ftle_full(skew, (0.3, 0.2), 2 * expansion._ORBIT_CHUNK + 5).hex()


def _ftle_fiber(skew):
    seq = fiber_sequence(skew, 0.3)
    return ftle_fiber(seq, 0.2, 2 * maps._THETA_BLOCK + 3).hex()


def _empirical_measure(skew):
    return empirical_measure(skew, 200, 400, seed=3).weights.tobytes()


def _fiber_branch_stats(skew):
    theta, x = skew.sample(make_generator(5), 100)
    return [a.tobytes() for a in fiber_branch_stats(skew, theta, x, 400)]


def _measure_AY_decay(skew):
    return repr(measure_AY_decay(skew, [5, 20], [0.1, 0.3], 0.1, 1000, 7))


def _probe_neighborhood(skew):
    return repr(probe_neighborhood(skew, (0.3, 0.5), 3, 0.05))


# each kernel and the number of orbits it starts: measure_AY_decay starts
# its cloud's and the theta = 0 sequence's that gives the domain length
KERNELS = [(_ftle_full, 1), (_ftle_fiber, 1), (_empirical_measure, 1),
           (_fiber_branch_stats, 1), (_measure_AY_decay, 2),
           (_probe_neighborhood, 1)]


@pytest.mark.parametrize("kernel, orbits", KERNELS,
                         ids=[f.__name__[1:] for f, _ in KERNELS])
@pytest.mark.parametrize("d", [3, 16])
def test_kernels_carry_an_opaque_state(kernel, orbits, d,
                                       opaque_base_states):
    # a state that refuses float(), arrays and arithmetic gives the bytes
    # of the float-row state, so no kernel reads a row behind the pair's
    # back; and theta enters once an orbit, so none restarts an orbit
    # from a float row
    skew = viana_skew(d=d)
    want = kernel(skew)
    calls = opaque_base_states()
    assert kernel(skew) == want
    assert calls.count("base_state") == orbits
    assert "base_rows" in calls


@pytest.mark.parametrize("d", [3, 16])
def test_base_rows_chain_through_their_state(d):
    # rows 0 .. n-1 and the state of row n: n = 0 gives the state back,
    # and rows taken in parts are the rows taken at once
    skew = viana_skew(d=d)
    for theta in (0.3, np.array([0.3, 0.987654, 1.25])):
        state = skew.base_state(theta)
        rows, same = skew.base_rows(state, 0)
        assert rows.shape == (0,) + np.shape(theta)
        assert np.asarray(same).tobytes() == np.asarray(state).tobytes()
        whole, _ = skew.base_rows(state, 30)
        parts = []
        for k in (1, 12, 0, 17):
            rows, state = skew.base_rows(state, k)
            parts.append(rows)
        assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_raises(viana, theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        viana.base_state(theta)
    with pytest.raises(ValueError, match="theta must be finite"):
        viana.base_state(np.array([0.3, theta]))
    # ftle_full once raised DegenerateDifferential at theta = nan
    with pytest.raises(ValueError, match="theta must be finite"):
        ftle_full(viana, (theta, 0.2), 100)
    with pytest.raises(ValueError, match="theta must be finite"):
        next(viana.theta_blocks(np.array([0.3, theta]), 5))


def test_finite_theta_still_wraps(viana):
    got = ftle_full(viana, (1.5, 0.2), 100)
    assert got.hex() == ftle_full(viana, (0.5, 0.2), 100).hex()
    assert got == pytest.approx(0.41270307, abs=1e-8)
    # fiber_sequence keeps its own [0, 1) check
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        fiber_sequence(viana, 1.5)


@pytest.mark.parametrize("x", [5.0, -5.0, math.nan, math.inf])
def test_ftle_start_outside_the_domain_raises(viana, logistic_seq, x):
    # once inf or nan from ftle_fiber, and overflow warnings then
    # DegenerateDifferential from ftle_full
    for call in (lambda: ftle_fiber(fiber_sequence(viana, 0.3), x, 100),
                 lambda: ftle_fiber(logistic_seq, x, 100),
                 lambda: ftle_full(viana, (0.3, x), 100)):
        with pytest.raises(ValueError, match="outside"):
            call()


def test_ftle_start_on_the_domain_edge_runs(viana, logistic_seq):
    dom = viana.fiber_domain
    for x in (dom.lo, dom.hi):
        assert math.isfinite(ftle_full(viana, (0.3, x), 50))
        assert math.isfinite(ftle_fiber(fiber_sequence(viana, 0.3), x, 50))
    assert math.isfinite(ftle_fiber(logistic_seq, 0.3, 50))
