"""fiberdyn: numerical dynamics of interval maps and skew-products.

A laboratory for non-uniformly expanding one-dimensional dynamics driven
along skew-product fibers: maximal monotone branches and their image
sizes, Pliss and hyperbolic-like times, nearly horizontal curves,
averaged-pushforward invariant measures, and induced Markov maps, with a
seeded experiment runner for reproducible batch runs.
"""

__version__ = "0.1.0"

from .errors import (CapExceeded, ClosureDiverges, DegenerateDifferential,
                     DegenerateGap, DerivativeVanishes, DomainCollapsed,
                     EmptySample, EscapedDomain, FiberdynError, HitCritical,
                     InducingTimeNotFound, InvalidConstants, IOFailure,
                     MissingDerivative, NotAGraph, NotHyperbolicLike,
                     NotMonotone, ParseError, ValidationError)
from .maps import (Domination, IntervalDomain, IntervalMap, MapSequence,
                   SkewProduct, affine_map, constant_sequence, doubling_map,
                   estimate_modulus, family_names, fiber_sequence,
                   find_critical_points, identity_map, logistic_map,
                   make_system, moebius_map, quadratic_map, schwarzian,
                   twowell_map, verify_partial_hyperbolicity, viana_skew)
from .branches import (BranchPartition, CensusRecord, EndpointCut,
                       MonotoneBranch, bisect_preimage, bisect_preimages,
                       component_census, interval_images,
                       monotonicity_partition, symbol_sequence, track_branch)
from .expansion import (DecayTable, branch_stats, estimate_f2,
                        fiber_branch_stats, ftle_fiber, ftle_full,
                        measure_AY_decay, smallest_singular_value)
from .hyptimes import (CurveGraph, PlissQuery, PlissResult, ProbeReport,
                       curve_growth_constants, hyperbolic_like_times,
                       pliss_times, probe_neighborhood, propagate_curve,
                       slope_envelope)
from .measures import (BinGrid1D, BinGrid2D, ComponentReport,
                       EmpiricalMeasure, NuLikeMass, density_compare,
                       empirical_measure, ergodic_components,
                       invariance_defect, nu_like_mass, orbit_bin_counts)
from .markov import (InducedBranch, MarkovCertificate, MarkovPartition,
                     SummabilityStat, assemble_markov, build_partition,
                     cross_ratio, cross_ratio_operator,
                     fit_cross_ratio_constant, inducing_time,
                     inducing_times, monotone_scale, summability_stat)
