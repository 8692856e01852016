"""Exact crossing counts for proper grid graphs.

Two counters with identical results on every input:

* count_crossings_naive - the reference: every unordered edge pair goes
  through the rational classification in geom. Pure Python, any magnitude.
* count_crossings_pruned - the fast path: bounding-box pruning plus the
  vectorized int64 kernel in _kernels; graphs with a coordinate beyond
  +-SAFE_COORD go through an exact big-integer sweep instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _kernels
from .errors import ImproperGraphError
from .geom import segments_cross
from .graph import GridGraph, validate_proper


@dataclass(frozen=True)
class CrossingReport:
    total: int
    per_edge: tuple  # crossings incident to each edge, aligned with g.edges
    method: str  # "naive" | "pruned"


def _require_proper(g: GridGraph):
    violations = validate_proper(g)
    if violations:
        raise ImproperGraphError(violations)


def count_crossings_naive(g: GridGraph, check_proper: bool = True) -> CrossingReport:
    """Reference count: classify all edge pairs with exact rational arithmetic."""
    if check_proper:
        _require_proper(g)
    segs = g.segments()
    m = len(segs)
    per_edge = [0] * m
    total = 0
    for i, j in combinations(range(m), 2):
        if segments_cross(segs[i], segs[j]).is_crossing:
            total += 1
            per_edge[i] += 1
            per_edge[j] += 1
    return CrossingReport(total, tuple(per_edge), "naive")


def count_crossings_pruned(g: GridGraph, check_proper: bool = True) -> CrossingReport:
    """Fast count; totals and per-edge histogram match the naive counter exactly."""
    if check_proper:
        _require_proper(g)
    m = len(g.edges)
    if m < 2:
        return CrossingReport(0, (0,) * m, "pruned")
    pts = g.vertices
    maxc = max(abs(x) for v in pts for x in v) if pts else 0
    if maxc > _kernels.SAFE_COORD:
        total, per_edge = _count_pairs_object(g.segments())
        return CrossingReport(total, tuple(per_edge), "pruned")
    A = np.array([pts[i] for i, _ in g.edges], dtype=np.int64)
    B = np.array([pts[j] for _, j in g.edges], dtype=np.int64)
    total, per_edge = _kernels.count_pairs(A, B)
    return CrossingReport(total, tuple(int(x) for x in per_edge), "pruned")


def _count_pairs_object(segs):
    # sweep-and-prune with Python integers; exact at any coordinate size, and
    # the only path for coordinates beyond the int64 kernel's range
    m = len(segs)
    dim = len(segs[0][0])
    lo = [tuple(min(a[i], b[i]) for i in range(dim)) for a, b in segs]
    hi = [tuple(max(a[i], b[i]) for i in range(dim)) for a, b in segs]
    spreads = [max(h[i] for h in hi) - min(l[i] for l in lo) for i in range(dim)]
    ax0 = spreads.index(max(spreads))
    order = sorted(range(m), key=lambda e: lo[e][ax0])
    per_edge = [0] * m
    total = 0
    for oi in range(m):
        i = order[oi]
        top = hi[i][ax0]
        for oj in range(oi + 1, m):
            j = order[oj]
            if lo[j][ax0] > top:
                break
            if any(lo[j][ax] > hi[i][ax] or lo[i][ax] > hi[j][ax] for ax in range(dim)):
                continue
            if segments_cross(segs[i], segs[j]).is_crossing:
                total += 1
                per_edge[i] += 1
                per_edge[j] += 1
    return total, per_edge
