"""fiberdyn: numerical dynamics of interval maps and skew-products.

A laboratory for non-uniformly expanding one-dimensional dynamics driven
along skew-product fibers: maximal monotone branches and their image
sizes, Pliss and hyperbolic-like times, nearly horizontal curves,
averaged-pushforward invariant measures, and induced Markov maps, with a
seeded experiment runner for reproducible batch runs.

Importing the package loads only the error classes.  Every other public
name is looked up in its home module on first access (PEP 562), so a
program loads only the numerical modules it uses.  The lookup is not
cached: the package returns whatever the home module holds at that moment.
"""

from importlib import import_module

__version__ = "0.1.0"

from .errors import (CapExceeded, ClosureDiverges, DegenerateDifferential,
                     DegenerateGap, DerivativeVanishes, DomainCollapsed,
                     EmptySample, EscapedDomain, FiberdynError, HitCritical,
                     InducingTimeNotFound, InvalidConstants, IOFailure,
                     MissingDerivative, NotAGraph, NotHyperbolicLike,
                     NotMonotone, ParseError, ValidationError)

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "maps": (
        "IntervalDomain", "IntervalMap", "MapSequence", "SkewProduct",
        "affine_map", "constant_sequence", "doubling_map", "estimate_modulus",
        "family_names", "fiber_sequence", "find_critical_points",
        "identity_map", "logistic_map", "make_system", "moebius_map",
        "quadratic_map", "schwarzian", "twowell_map",
        "verify_partial_hyperbolicity", "viana_skew"),
    "branches": (
        "BranchPartition", "CensusRecord", "EndpointCut", "MonotoneBranch",
        "bisect_preimage", "bisect_preimages", "component_census",
        "interval_images", "monotonicity_partition", "symbol_sequence",
        "track_branch"),
    "expansion": (
        "DecayTable", "NuLikeMass", "branch_stats", "estimate_f2",
        "fiber_branch_stats", "ftle_fiber", "ftle_full", "measure_AY_decay",
        "nu_like_mass", "smallest_singular_value"),
    "hyptimes": (
        "CurveGraph", "PlissQuery", "PlissResult", "ProbeReport",
        "curve_growth_constants", "hyperbolic_like_times", "pliss_times",
        "probe_neighborhood", "propagate_curve", "slope_envelope"),
    "measures": (
        "BinGrid1D", "BinGrid2D", "ComponentReport", "EmpiricalMeasure",
        "density_compare", "empirical_measure", "ergodic_components",
        "invariance_defect", "orbit_bin_counts"),
    "markov": (
        "InducedBranch", "MarkovCertificate", "MarkovPartition",
        "SummabilityStat", "assemble_markov", "build_partition",
        "cross_ratio", "cross_ratio_operator", "fit_cross_ratio_constant",
        "inducing_time", "inducing_times", "monotone_scale",
        "summability_stat"),
}.items() for name in names}

__all__ = sorted([name for name, value in globals().items()
                  if isinstance(value, type)
                  and issubclass(value, FiberdynError)] + list(_EXPORTS))


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(globals().keys() | set(__all__))
