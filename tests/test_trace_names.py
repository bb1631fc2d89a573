"""The names perfbench's tracer wraps must exist in the package.

perfbench/tracing.py wraps functions by (module, name) and the map
callables of every system by attribute name.  A rename in the package
would otherwise only show when a traced benchmark pass breaks.  These
tests read the tracer's tables and change nothing in perfbench.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fiberdyn import maps
from fiberdyn.branches import bisect_preimage, compose_maps, track_branch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_namespaces_import(tracing):
    for name in tracing.NAMESPACES:
        importlib.import_module(name)


def test_traced_functions_resolve(tracing):
    for mod_name, fn_name in tracing.TRACED:
        assert mod_name in tracing.NAMESPACES, mod_name
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name}"


def test_map_callables_exist_on_every_catalogue_system(tracing):
    for cls in tracing.MAP_CALLABLES:
        assert hasattr(maps, cls), cls
    for family in maps.family_names():
        system = maps.make_system(family)
        attrs = tracing.MAP_CALLABLES.get(type(system).__name__)
        assert attrs, f"{family}: {type(system).__name__} has no map callables"
        for attr in attrs:
            assert callable(getattr(system, attr, None)), f"{family}.{attr}"


def test_counted_skew_callables_keep_their_values(tracing):
    system = maps.viana_skew()
    plain = maps.viana_skew()
    tracing.Tracer().count_maps(system)
    th = np.linspace(0.0, 1.0, 7, endpoint=False)
    for attr in tracing.MAP_CALLABLES["SkewProduct"]:
        assert hasattr(getattr(system, attr), "__wrapped__"), attr
    assert np.array_equal(system.base(th), plain.base(th))
    assert system.base_derivative(0.3) == plain.base_derivative(0.3)
    rows = [skew.base_rows(skew.base_state(0.3), 6)[0]
            for skew in (system, plain)]
    assert np.array_equal(*rows)


def test_bisect_residual_hook_reads_fiber_sequence_maps(tracing):
    seq = maps.viana_skew().sequence(0.3)
    k = 4
    fiber_maps = [seq.map_at(j) for j in range(k)]
    br = track_branch(seq, 0.2, k)
    target = 0.5 * (br.img_lo + br.img_hi)
    t = bisect_preimage(fiber_maps, target, br.t_lo, br.t_hi)
    span = tracing.Span(0, "branches.bisect", None, 0)
    tracing._bisect_residual(None, span, (fiber_maps, target, br.t_lo,
                                          br.t_hi), {}, t, None)
    assert span.info == abs(compose_maps(fiber_maps, t) - target)
    assert span.info < 1e-9


def test_counted_viana_counts_fiber_calls_of_its_sequences(tracing):
    system = maps.viana_skew()
    tracer = tracing.Tracer()
    tracer.count_maps(system)
    # drop the counted base again, so that every scalar call counted below
    # is a fiber map call (fiber_dx is only called on arrays here)
    object.__delattr__(system, "base")
    seq = system.sequence(0.3)
    assert seq.map_at(0).evaluator.func is system.fiber
    track_branch(seq, 0.2, 6)
    assert tracer._root.scalar_calls > 0
