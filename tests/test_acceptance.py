"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Exact values are asserted with no tolerance anywhere; growth checks
use the stated closed-form envelopes.
"""

import io
import math
import random
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from gridcross.bounds import (
    lower_bound_essential_pgrid,
    lower_bound_greedy_removal,
    lower_bound_midpoint_bucket,
)
from gridcross.cli import main as cli_main
from gridcross.constructions import (
    analytic_skip_bound,
    augment_matching_to_spanning_tree,
    layer_grid_vertices,
    layered_complete_bipartite,
    random_proper_graph,
    stack_layer_graphs,
    tile_bipartite,
)
from gridcross.counting import count_crossings_naive, count_crossings_pruned
from gridcross.enumeration import (
    bose_formula,
    build_conflict_graph,
    count_crossing_free_matchings,
    count_crossing_free_spanning_trees,
    count_crossing_free_subgraphs,
    count_independent_sets,
    crossing_graph,
    max_crossing_free_edges,
    ncs_upper_formula,
)
from gridcross.geom import segments_cross
from gridcross.graph import compute_volume, make_grid_graph, validate_proper
from gridcross.totients import totient_sieve, verify_totient_inequalities


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


# --- shared random-graph suite (criteria 4 and 5) -------------------------

RANDOM_GRIDS = [
    (8, 8), (6, 4),                     # d = 2
    (4, 4, 4), (2, 4, 8), (3, 3, 4),    # d = 3
    (2, 2, 2, 8), (2, 2, 4, 4),         # d = 4
]
TARGET_EDGE_COUNTS = (8, 25, 60)
SEEDS = tuple(range(10))


def _candidate_count(sides):
    from itertools import product

    pts = list(product(*(range(1, s + 1) for s in sides)))
    count = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            g = 0
            for a, b in zip(pts[i], pts[j]):
                g = gcd(g, abs(b - a))
            if g == 1:
                count += 1
    return count


@pytest.fixture(scope="module")
def random_suite():
    suite = []
    for sides in RANDOM_GRIDS:
        available = _candidate_count(sides)
        for m_target in TARGET_EDGE_COUNTS:
            m = min(m_target, available)
            for seed in SEEDS:
                g = random_proper_graph(sides, m, seed)
                suite.append((sides, g, count_crossings_naive(g, check_proper=False)))
    return suite


def test_criterion_1_bose_formula_exactness():
    with criterion(1, "branch-and-bound maximum equals the closed-form edge maximum"):
        expected = {(2, 2): 5, (3, 2): 9, (3, 3): 16, (2, 2, 2): 19}
        for sides, value in expected.items():
            assert bose_formula(sides) == value
            assert max_crossing_free_edges(sides) == value


def test_criterion_2_growth_3d():
    with criterion(2, "3-d layered drawings: exact counts, per-edge budget, growth envelope"):
        totals = {}
        for k in range(2, 7):
            g = layered_complete_bipartite(k, 3)
            assert validate_proper(g) == []
            rep = count_crossings_pruned(g, check_proper=False)
            totals[k] = rep.total
            bound = analytic_skip_bound(k, 3)
            assert Fraction(max(rep.per_edge)) <= bound
            assert rep.total <= 2 * k ** 6 * math.log(k) + 30 * k ** 6
        assert totals[2] == 10
        # hand verification of k=2: crossings happen exactly between edges
        # whose endpoint sums agree, giving 4 classes of 2 and one of 4
        assert 4 * 1 + math.comb(4, 2) == 10


def test_criterion_3_growth_4d():
    with criterion(3, "4-d layered drawings: per-edge budget and total envelope"):
        assert analytic_skip_bound(2, 4) == 183
        for k in (2, 3):
            g = layered_complete_bipartite(k, 4)
            rep = count_crossings_pruned(g, check_proper=False)
            bound = analytic_skip_bound(k, 4)
            layer = k ** 3
            assert Fraction(max(rep.per_edge)) <= bound
            assert rep.total <= bound * layer ** 2 / 2


def test_criterion_4_certificate_soundness(random_suite):
    with criterion(4, "certificates never exceed the exact count on 210 random graphs"):
        assert len(random_suite) >= 200
        dims = {len(sides) for sides, _, _ in random_suite}
        assert dims == {2, 3, 4}
        table = totient_sieve(8)
        for sides, g, ref in random_suite:
            assert compute_volume(g) <= 64
            m = len(g.edges)
            assert m <= 60
            assert lower_bound_midpoint_bucket(g, check_proper=False).value <= ref.total
            cert = lower_bound_essential_pgrid(g, 8, check_proper=False)
            assert cert.value <= ref.total
            for p, mass in cert.incidence:
                assert mass == (0 if p == 1 else m * table[p])
            assert lower_bound_greedy_removal(compute_volume(g), m, g.dim) <= ref.total


def test_criterion_5_oracle_equivalence(random_suite):
    with criterion(5, "pruned counter equals the naive oracle everywhere"):
        for _, g, ref in random_suite:
            got = count_crossings_pruned(g, check_proper=False)
            assert got.total == ref.total
            assert got.per_edge == ref.per_edge
        fixtures = [layered_complete_bipartite(k, 3) for k in range(2, 7)]
        fixtures += [layered_complete_bipartite(k, 4) for k in (2, 3)]
        fixtures += [tile_bipartite(2, 4, 3), tile_bipartite(1, 3, 3)]
        for g in fixtures:
            ref = count_crossings_naive(g, check_proper=False)
            got = count_crossings_pruned(g, check_proper=False)
            assert got.total == ref.total
            assert got.per_edge == ref.per_edge


def test_criterion_6_totient_inequalities():
    with criterion(6, "totient square-sum bounds and logarithmic growth up to 10^4"):
        rep = verify_totient_inequalities(10_000, log_c=0.05, window_start=27)
        # strict cube bound for every n >= 2; at n = 1 both sides equal 1
        assert rep.square_sum_strictly_below_cube
        assert rep.eleventh_holds_from == 1
        print(f"  [criterion 6] eleventh-bound threshold n0 = {rep.eleventh_holds_from}, "
              f"min s3(k)/ln k = {rep.log_ratio_min:.4f} on [27, 10^4]")
        assert rep.log_bound_ok
        assert rep.log_ratio_min >= 0.05


def _independent_sets_by_subset_dp(adjacency):
    t = len(adjacency)
    nbr = [sum(1 << j for j in a) for a in adjacency]
    valid = np.zeros(1 << t, dtype=bool)
    valid[0] = True
    for v in range(t):
        rs = np.arange(1 << v)
        valid[(1 << v) + rs] = valid[rs] & ((rs & nbr[v]) == 0)
    return int(valid.sum())


def test_criterion_7_enumeration_exactness():
    with criterion(7, "2x2 exact counts and brute-force agreement on 50 conflict graphs"):
        cg = build_conflict_graph((2, 2))
        assert count_crossing_free_subgraphs(cg) == 48
        assert count_crossing_free_matchings(cg) == 9
        assert count_crossing_free_spanning_trees((2, 2)) == 12

        rng = random.Random(71)
        cases = []
        for _ in range(42):
            t = rng.randint(1, 20)
            density = rng.choice([0.08, 0.2, 0.45])
            adjacency = [set() for _ in range(t)]
            for i in range(t):
                for j in range(i + 1, t):
                    if rng.random() < density:
                        adjacency[i].add(j)
                        adjacency[j].add(i)
            cases.append([frozenset(a) for a in adjacency])
        # grid-derived conflict graphs, induced down to at most 20 candidates
        for sides in [(2, 2), (3, 2), (2, 3), (1, 5)]:
            full = build_conflict_graph(sides)
            keep = sorted(rng.sample(range(full.size), min(20, full.size)))
            relabel = {v: i for i, v in enumerate(keep)}
            cases.append([frozenset(relabel[w] for w in keep if full.conflicts[v] >> w & 1)
                          for v in keep])
        d224 = build_conflict_graph((2, 2, 2))
        for _ in range(4):
            keep = sorted(rng.sample(range(d224.size), 20))
            relabel = {v: i for i, v in enumerate(keep)}
            cases.append([frozenset(relabel[w] for w in keep if d224.conflicts[v] >> w & 1)
                          for v in keep])
        assert len(cases) == 50
        for adjacency in cases:
            assert count_independent_sets(adjacency) == _independent_sets_by_subset_dp(adjacency)


def _enumerate_crossing_free_matchings(cg):
    """All independent sets of the conflict graph augmented with endpoint sharing."""
    n = cg.size
    nbr = list(cg.conflicts)
    for i in range(n):
        pi = set(cg.graph.edges[i])
        for j in range(i + 1, n):
            if pi & set(cg.graph.edges[j]):
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    found = []

    def rec(start, blocked, chosen):
        found.append(chosen)
        for v in range(start, n):
            if not (blocked >> v) & 1:
                rec(v + 1, blocked | nbr[v] | (1 << v), chosen + (v,))

    rec(0, 0, ())
    return found


def test_criterion_8_counting_consistency():
    with criterion(8, "count ordering, exhaustive augmentation, and layer stacking"):
        for sides in [(2, 2), (3, 2), (1, 3), (3, 3), (2, 2, 2)]:
            cg = build_conflict_graph(sides)
            volume = 1
            for s in sides:
                volume *= s
            sub = count_crossing_free_subgraphs(cg)
            mat = count_crossing_free_matchings(cg)
            assert mat <= sub <= ncs_upper_formula(volume, len(sides))

        # every crossing-free matching of the layered 2x2x2 drawing augments
        # to a crossing-free spanning tree that contains it
        k, d = 2, 3
        bip = layered_complete_bipartite(k, d)
        cg = crossing_graph(bip)
        matchings = _enumerate_crossing_free_matchings(cg)
        assert len(matchings) == count_crossing_free_matchings(cg) == 154
        for chosen in matchings:
            m = make_grid_graph(d, bip.vertices, [bip.edges[e] for e in chosen])
            tree = augment_matching_to_spanning_tree(m, k, d)
            assert len(tree.edges) == len(bip.vertices) - 1
            assert set(m.edges) <= set(tree.edges)
            assert count_crossings_naive(tree, check_proper=False).total == 0
        print(f"  [criterion 8] augmented all {len(matchings)} matchings of the 2x2x2 drawing")

        # stacking matchings on non-adjacent layer pairs of the 3^4 grid
        k, d = 3, 4
        verts = layer_grid_vertices(k, d)
        bottoms = [v for v in verts if v[-1] == 1]
        tops = [v for v in verts if v[-1] == 2]
        rng = random.Random(73)
        for case in range(100):
            layer = rng.choice((1, 2))  # the two singleton non-adjacent pair choices
            pairs = []
            used = set()
            for u in rng.sample(bottoms, rng.randint(0, 6)):
                w = rng.choice([t for t in tops if t not in used])
                if any(segments_cross((u, w), s).is_crossing for s in pairs):
                    continue
                pairs.append((u, w))
                used.add(w)
            m = make_grid_graph(d, verts, [(verts.index(a), verts.index(b)) for a, b in pairs])
            union = stack_layer_graphs({layer: m}, k, d)
            assert count_crossings_naive(union, check_proper=False).total == 0
            seen = set()
            for i, j in union.edges:
                assert i not in seen and j not in seen
                seen.update((i, j))


def _run_cli_bytes(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, f"command {argv} exited {code}"
    return buf.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "repeated CLI invocations emit byte-identical output"):
        graph_path = tmp_path / "g.json"
        _ = _run_cli_bytes(["gen", "--kind", "random", "--sides", "5x5", "--edges", "14",
                            "--seed", "11", "--out", str(graph_path)])
        invocations = [
            ["gen", "--kind", "random", "--sides", "5x5", "--edges", "14", "--seed", "11"],
            ["gen", "--kind", "bipartite", "--k", "3", "--dim", "4"],
            ["cross", str(graph_path), "--method", "naive"],
            ["cross", str(graph_path), "--method", "pruned"],
            ["cross", str(graph_path), "--method", "all-certificates", "--p-max", "5"],
            ["enum", "--sides", "2x2x2"],
            ["nt", "--n-max", "40"],
            ["nt", "--n-max", "50", "--check"],
            ["experiment", "--kind", "growth3d", "--k-values", "2,3,4"],
            ["experiment", "--kind", "certificates", "--sides", "4x4,2x2x2",
             "--edges", "10", "--seeds", "0,1,2", "--format", "json"],
            ["experiment", "--kind", "enumeration", "--sides", "2x2,3x2,1x3"],
        ]
        for argv in invocations:
            assert _run_cli_bytes(argv) == _run_cli_bytes(argv)
