"""The benchmark's four workloads: inputs made from a seed, one pass, exact checks.

Each workload is a list of instances built by `generate` and a runner that
takes one instance through gridcross's public functions via a tracer's
`call` (plain call when untraced, one span per call when traced). A runner
returns the instance's exact outputs and a list of failed checks. Output
keys with a dot are per-layer counters that a pass sums over its instances;
the others are the instance's own exact results.

Why these four (each stresses a different layer):

* drawings: the int64 counting kernel on the layered drawings, and the
  bounding-box filter plus the O(m*n) `validate_proper` on the tiled one.
* random-certify: essential-pgrid buckets, the pure-Python `geom` oracle
  behind the naive counter, and per-call overhead of many tiny pruned calls;
  the kernel is nearly idle.
* enum-small: the conflict graph, independent-set counting, the
  branch-and-bound MIS (2-d grids and 2x2x2) and spanning-tree search.
* totient-scan: the only workload of the `totients` layer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod

from gridcross import (
    analytic_skip_bound,
    bose_formula,
    build_conflict_graph,
    compute_volume,
    count_crossing_free_matchings,
    count_crossing_free_spanning_trees,
    count_crossing_free_subgraphs,
    count_crossings_naive,
    count_crossings_pruned,
    layered_complete_bipartite,
    lower_bound_essential_pgrid,
    lower_bound_greedy_removal,
    lower_bound_midpoint_bucket,
    lower_bound_midpoint_formula,
    make_grid_graph,
    max_crossing_free_edges,
    random_proper_graph,
    tile_bipartite,
    totient_sieve,
    totient_sums,
    validate_proper,
    verify_totient_inequalities,
)

WORKLOADS = ("drawings", "random-certify", "enum-small", "totient-scan")


@dataclass
class Instance:
    name: str
    data: object  # a GridGraph, grid sides, or the totient scan length
    expected: dict = field(default_factory=dict)

    @property
    def graph(self):
        """The instance's graph when it goes through the pruned counter, else None."""
        return self.data if hasattr(self.data, "edges") else None


# --- drawings ---------------------------------------------------------------

# name -> (construction, args, block k, d, expected exact outputs). The expected
# values are translation invariant, so they hold for every seed. The drawings
# are sized so that no call takes more than about half a second: a run then
# samples every call many times (see run.pass_seconds). Each crossing count
# was also checked against count_crossings_naive; the tiled drawing is four
# disjoint copies of the k = 4 block, 4 x 1740 crossings.
DRAWINGS = {
    "layered-k6-d3": (layered_complete_bipartite, (6, 3), 6, 3, {
        "crossings": 27622, "per_edge_max": 99, "midpoint_bound": 10010,
        "pgrid_bound": 20238, "pgrid_incidence": ((1, 0), (2, 1296), (3, 2592), (4, 2592))}),
    "layered-k3-d4": (layered_complete_bipartite, (3, 4), 3, 4, {
        "crossings": 4533, "per_edge_max": 40, "midpoint_bound": 3065,
        "pgrid_bound": 4533, "pgrid_incidence": ((1, 0), (2, 729), (3, 1458), (4, 1458))}),
    "tiled-k4-s8-d3": (tile_bipartite, (4, 8, 3), 4, 3, {
        "crossings": 6960, "per_edge_max": 33, "midpoint_bound": 3360,
        "pgrid_bound": 6384, "pgrid_incidence": ((1, 0), (2, 1024), (3, 2048), (4, 2048))}),
}


def _gen_drawings(seed, tr):
    # The seed picks a lattice translation of each drawing and the order of
    # the drawings; crossings and certificates do not depend on either.
    rng = random.Random(seed)
    out = []
    for name, (construct, args, k, d, expected) in DRAWINGS.items():
        g = tr.call(construct, *args)
        shift = [rng.randrange(1000) for _ in range(d)]
        verts = [tuple(x + s for x, s in zip(v, shift)) for v in g.vertices]
        g = tr.call(make_grid_graph, d, verts, g.edges)
        exp = dict(expected, skip_bound=analytic_skip_bound(k, d))
        out.append(Instance(name, g, exp))
    rng.shuffle(out)
    return out


def _run_drawing(inst, tr):
    g, exp = inst.data, inst.expected
    m, n = len(g.edges), len(g.vertices)
    violations = tr.call(validate_proper, g)
    rep = tr.call(count_crossings_pruned, g, check_proper=False)
    mid = tr.call(lower_bound_midpoint_bucket, g, check_proper=False)
    pg = tr.call(lower_bound_essential_pgrid, g, p_max=4, check_proper=False)
    edge_max = max(rep.per_edge)
    out = {
        "crossings": rep.total,
        "per_edge_max": edge_max,
        "midpoint_bound": int(mid.value),
        "pgrid_bound": int(pg.value),
        "pgrid_incidence": pg.incidence,
        "graph.edge_vertex_pairs": m * (n - 2),
        "counting.pruned_calls": 1,
        "counting.pairs": comb(m, 2),
        "counting.crossings": rep.total,
        "bounds.pgrid_incidence": sum(mass for _, mass in pg.incidence),
    }
    failed = []
    if violations:
        failed.append(f"validate_proper found {len(violations)} violations")
    if len(rep.per_edge) != m or sum(rep.per_edge) != 2 * rep.total:
        failed.append("per_edge does not sum to twice the total")
    if edge_max > exp["skip_bound"]:
        failed.append(f"per_edge_max {edge_max} exceeds analytic_skip_bound {exp['skip_bound']}")
    for key in ("crossings", "per_edge_max", "midpoint_bound", "pgrid_bound", "pgrid_incidence"):
        if out[key] != exp[key]:
            failed.append(f"{key} = {out[key]!r}, expected {exp[key]!r}")
    for cert in (mid, pg):
        if cert.value > rep.total:
            failed.append(f"{cert.kind} certificate {cert.value} exceeds the count {rep.total}")
    return out, failed


# --- random-certify ---------------------------------------------------------

RANDOM_GRIDS = (
    (8, 8), (6, 4),                     # d = 2
    (4, 4, 4), (2, 4, 8), (3, 3, 4),    # d = 3
    (2, 2, 2, 8), (2, 2, 4, 4),         # d = 4
)
EDGE_COUNTS = (8, 25, 60)  # every grid above has at least 188 candidate edges
GRAPH_SEEDS = 3  # graphs per (grid, edge count); more would mean fewer passes per run
PGRID_P_MAX = 8
PHI = (0, 1, 1, 2, 2, 4, 2, 6, 4)  # phi(0..8), independent of the totients module


def _gen_random(seed, tr):
    out = []
    for sides in RANDOM_GRIDS:
        for m in EDGE_COUNTS:
            for s in range(GRAPH_SEEDS * seed, GRAPH_SEEDS * (seed + 1)):
                g = tr.call(random_proper_graph, sides, m, s)
                out.append(Instance("x".join(map(str, sides)) + f"-m{m}-s{s}", g))
    return out


def _run_random(inst, tr):
    g = inst.data
    m, n = len(g.edges), len(g.vertices)
    violations = tr.call(validate_proper, g)
    ref = tr.call(count_crossings_naive, g, check_proper=False)
    got = tr.call(count_crossings_pruned, g, check_proper=False)
    volume = tr.call(compute_volume, g)
    certs = {
        "midpoint-bucket": tr.call(lower_bound_midpoint_bucket, g, check_proper=False).value,
        "greedy-removal": tr.call(lower_bound_greedy_removal, volume, m, g.dim),
        "midpoint-formula": tr.call(lower_bound_midpoint_formula, volume, m, g.dim),
    }
    pg = tr.call(lower_bound_essential_pgrid, g, PGRID_P_MAX, check_proper=False)
    certs["essential-pgrid"] = pg.value
    out = {
        "crossings": ref.total,
        "certificates": {k: str(v) for k, v in certs.items()},
        "graph.edge_vertex_pairs": m * (n - 2),
        "counting.pruned_calls": 1,
        "counting.pairs": comb(m, 2),
        "counting.naive_pairs": comb(m, 2),
        "counting.crossings": got.total,
        "bounds.pgrid_incidence": sum(mass for _, mass in pg.incidence),
    }
    failed = []
    if violations:
        failed.append(f"validate_proper found {len(violations)} violations")
    if got.total != ref.total or got.per_edge != ref.per_edge:
        failed.append(f"pruned {got.total} differs from naive {ref.total} in total or per_edge")
    for kind, value in certs.items():
        if value > ref.total:
            failed.append(f"{kind} certificate {value} exceeds the count {ref.total}")
    want = tuple((p, 0 if p == 1 else m * PHI[p]) for p in range(1, PGRID_P_MAX + 1))
    if pg.incidence != want:
        failed.append(f"essential-pgrid incidence {pg.incidence} != {want}")
    return out, failed


# --- enum-small -------------------------------------------------------------

TREE_VOLUME_MAX = 9  # the enumeration module's spanning-tree cap
# The MIS search runs on grids with at most this many candidate edges. The
# 62-candidate 2x2x3 search is a single 3-5 s call, which a run could sample
# only a handful of times; its conflict graph and counts are still measured.
MIS_CANDIDATES_MAX = 49
ENUM_GRIDS = {
    (3, 3): {"candidates": 28, "conflicts": 44, "subgraphs": 1150976, "matchings": 621,
             "mis": 16, "spanning_trees": 24965},
    (2, 2, 2): {"candidates": 28, "conflicts": 12, "subgraphs": 14929920, "matchings": 660,
                "mis": 19, "spanning_trees": 120000},
    (4, 3): {"candidates": 49, "conflicts": 172, "subgraphs": 1021444096, "matchings": 10211,
             "mis": 23},
    (2, 2, 3): {"candidates": 62, "conflicts": 73, "subgraphs": 37465422299136,
                "matchings": 69417},
}


def _gen_enum(seed, tr):
    # The grids are fixed: the MIS search order, and so its time, depends on
    # the axis order, so the seed only shuffles the order of the grids.
    out = [Instance("x".join(map(str, sides)), sides, exp) for sides, exp in ENUM_GRIDS.items()]
    random.Random(seed).shuffle(out)
    return out


def _run_enum(inst, tr):
    sides, exp = inst.data, inst.expected
    cg = tr.call(build_conflict_graph, sides)
    out = {
        "candidates": cg.size,
        "conflicts": cg.conflict_count,
        "subgraphs": tr.call(count_crossing_free_subgraphs, cg),
        "matchings": tr.call(count_crossing_free_matchings, cg),
        "enumeration.candidates": cg.size,
        "enumeration.conflicts": cg.conflict_count,
    }
    if cg.size <= MIS_CANDIDATES_MAX:
        out["mis"] = tr.call(max_crossing_free_edges, sides)
    if prod(sides) <= TREE_VOLUME_MAX:
        out["spanning_trees"] = tr.call(count_crossing_free_spanning_trees, sides)
    failed = [f"{key} = {out.get(key)!r}, expected {want!r}"
              for key, want in exp.items() if out.get(key) != want]
    if "mis" in out:
        bose = tr.call(bose_formula, sides)
        if out["mis"] != bose:
            failed.append(f"MIS {out['mis']} differs from bose_formula {bose}")
    return out, failed


# --- totient-scan -----------------------------------------------------------

TOTIENT_N = 10_000  # the scale of the package's totient acceptance check


def _digest(value) -> str:
    """Short hash of an exact value; a Fraction is hashed through its integers'
    bytes, since their decimal strings can exceed Python's conversion limit."""
    if isinstance(value, Fraction):
        parts = (value.numerator, value.denominator)
        value = b"/".join(x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True) for x in parts)
    else:
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()[:16]


TOTIENT_EXPECTED = {
    "s1": 30397486,
    "s2": 142740392514,
    "s3_digest": "1a0d6cf501f7f9ba",
    "square_sum_strictly_below_cube": True,
    "eleventh_holds_from": 1,
    "log_window_start": 27,
    "log_ratio_min": 0.503944694420433,
    "log_c_required": 0.05,
    "log_bound_ok": True,
    "ratios_digest": "ba2ead3621b26936",
}


def _gen_totients(seed, tr):
    # One fixed scan; the seed changes nothing here.
    return [Instance(f"n{TOTIENT_N}", TOTIENT_N, TOTIENT_EXPECTED)]


def _run_totients(inst, tr):
    n, exp = inst.data, inst.expected
    table = tr.call(totient_sieve, n)
    sums = tr.call(totient_sums, n, table)
    rep = tr.call(verify_totient_inequalities, n, log_c=0.05, window_start=27)
    out = {
        "s1": sums.s1,
        "s2": sums.s2,
        "s3_digest": _digest(sums.s3),
        "square_sum_strictly_below_cube": rep.square_sum_strictly_below_cube,
        "eleventh_holds_from": rep.eleventh_holds_from,
        "log_window_start": rep.log_window_start,
        "log_ratio_min": rep.log_ratio_min,
        "log_c_required": rep.log_c_required,
        "log_bound_ok": rep.log_bound_ok,
        "ratios_digest": _digest(rep.ratios),
    }
    failed = [f"{key} = {out[key]!r}, expected {want!r}"
              for key, want in exp.items() if out[key] != want]
    if int(table.phi[1:].sum()) != sums.s1:
        failed.append("sum of the sieve table differs from totient_sums s1")
    return out, failed


GENERATORS = {"drawings": _gen_drawings, "random-certify": _gen_random,
              "enum-small": _gen_enum, "totient-scan": _gen_totients}
RUNNERS = {"drawings": _run_drawing, "random-certify": _run_random,
           "enum-small": _run_enum, "totient-scan": _run_totients}


def generate(workload: str, seed: int, tr) -> list:
    """The workload's instances for this seed; the same seed gives the same inputs."""
    return GENERATORS[workload](seed, tr)
