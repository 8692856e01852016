"""Exact crossing machinery for geometric graphs on integer grids.

Counts crossings of straight-line drawings with lattice vertices (a naive
rational-arithmetic reference and a pruned fixed-width fast path that always agree),
evaluates lower-bound certificates, generates the extremal two-layer
constructions, verifies the totient-sum inequalities behind the 3-d bound,
and enumerates crossing-free subgraphs, matchings, and spanning trees on
desk-scale grids.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCertificate,
    certify,
    default_p_max,
    lower_bound_essential_pgrid,
    lower_bound_greedy_removal,
    lower_bound_midpoint_bucket,
    lower_bound_midpoint_formula,
)
from .constructions import (
    analytic_skip_bound,
    augment_matching_to_spanning_tree,
    layered_complete_bipartite,
    random_proper_graph,
    stack_layer_graphs,
    tile_bipartite,
)
from .counting import CrossingReport, count_crossings_naive, count_crossings_pruned
from .enumeration import (
    ConflictGraph,
    bose_formula,
    build_conflict_graph,
    count_crossing_free_matchings,
    count_crossing_free_spanning_trees,
    count_crossing_free_subgraphs,
    crossing_graph,
    max_crossing_free_edges,
    ncs_lower_formula,
    ncs_upper_formula,
)
from .errors import CapExceeded, ImproperGraphError, ValidationError
from .geom import CrossKind, CrossResult, gcd_reduce, interior_lattice_points, point_on_open_segment, segments_cross
from .graph import (
    GridGraph,
    compute_volume,
    make_grid_graph,
    parse_graph,
    reduce_edges,
    serialize_graph,
    validate_proper,
)
from .totients import (
    TotientReport,
    TotientSums,
    TotientTable,
    edge_pgrid_points,
    essential_level,
    totient_sieve,
    totient_sums,
    verify_totient_inequalities,
)

from types import ModuleType as _Module

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
