"""Fixed reference work, timed beside the program to gauge the machine.

On a shared host the same code runs up to about twice as slow while other
tenants load the machine, in phases that last minutes, so a whole run can
fall in a slow phase.  Each kernel below stands for one kind of work the
workloads do.  None of them calls fiberdyn, so a change to the program
cannot move them.  A run reports the geometric mean of each kernel's fastest
CPU time as ``ref_s``.
"""

import math
import time

import numpy


def scalar_floats():
    """Python float arithmetic in an interpreted loop (scalar orbits)."""
    x = 0.3
    for _ in range(500_000):
        x = 3.9 * x * (1.0 - x)
    return x


def numpy_scalars():
    """numpy float64 scalar arithmetic (maps called on single points)."""
    x = numpy.float64(0.3)
    for _ in range(80_000):
        x = numpy.abs(3.9 * x * (1.0 - x))
    return x


def dict_updates():
    """Dict and int object churn (interpreter bookkeeping)."""
    d = {}
    for i in range(200_000):
        d[i % 977] = d.get(i % 997, 0) + i
    return len(d)


def small_arrays():
    """Many numpy calls on 64-element arrays (call overhead dominates)."""
    a = numpy.linspace(0.01, 0.99, 64)
    for _ in range(15_000):
        a = 3.9 * a * (1.0 - a)
    return a[0]


def large_arrays():
    """numpy arithmetic on 1e5-element arrays (ensembles of points)."""
    a = numpy.linspace(0.01, 0.99, 100_000)
    for _ in range(80):
        a = 3.9 * a * (1.0 - a)
    return a[0]


# Each kernel takes 25-35 ms on a quiet 2-core Xeon VM, as long as a
# typical repeated invocation.
KERNELS = (scalar_floats, numpy_scalars, dict_updates, small_arrays,
           large_arrays)


def sample_round():
    """CPU seconds of one run of each kernel, in KERNELS order."""
    times = []
    for kernel in KERNELS:
        c0 = time.process_time()
        kernel()
        times.append(time.process_time() - c0)
    return times


def ref_seconds(rounds):
    """Geometric mean over kernels of each one's fastest time in ``rounds``."""
    fastest = [min(column) for column in zip(*rounds)]
    return math.exp(sum(math.log(t) for t in fastest) / len(fastest))
