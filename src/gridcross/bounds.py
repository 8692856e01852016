"""Lower-bound certificates for crossing counts.

Three certificate kinds bound crs(G) from below on a concrete graph:

* midpoint-bucket: edges sharing a midpoint pairwise cross there, so summing
  C(R, 2) over midpoint classes, the level-2 buckets below, never overcounts.
* essential-pgrid: a primitive edge carries phi(p) points of refinement
  level exactly p, at the reduced parameters i/p; levels partition the
  candidate crossing points, and every crossing point of two primitive edges
  is such a point on both. Summing C(R, 2) over (level, point) buckets up to
  p_max therefore undercounts crs(G). Primitive edges span a single lattice
  step, so two of them can never overlap collinearly and no bucket is
  counted twice.
* greedy-removal / midpoint-formula: closed forms in volume and edge count
  alone (the formula kind bounds the minimum over all graphs of a given
  size, not a specific graph).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import ValidationError, as_integer
from .geom import gcd_reduce
from .graph import GridGraph, compute_volume, require_proper
from .totients import pgrid_numerators


@dataclass(frozen=True)
class BoundCertificate:
    kind: str
    value: Fraction
    p_max: int | None = None
    incidence: tuple | None = None  # ((p, level-p points over all edges), ...) for essential-pgrid


def _level(segs, p: int):
    """(pairs, points) at level p: the segments' points n/p from pgrid_numerators,
    bucketed by n (exact within a level); pairs sums C(R, 2) over bucket sizes R."""
    buckets = Counter(n for seg in segs for n in pgrid_numerators(seg, p))
    return sum(comb(r, 2) for r in buckets.values()), sum(buckets.values())


def lower_bound_midpoint_bucket(g: GridGraph, check_proper: bool = True) -> BoundCertificate:
    """Sum C(R, 2) over edges sharing a midpoint: the level-2 buckets, keyed by a + b."""
    if check_proper:
        require_proper(g)
    return BoundCertificate("midpoint-bucket", Fraction(_level(g.segments(), 2)[0]))


def _closed_form_args(N, m, d):
    """(N, m, d) as ints; ValidationError unless N >= 1, d >= 1, m >= 0."""
    N, m, d = as_integer(N, "N"), as_integer(m, "m"), as_integer(d, "d")
    if N < 1 or d < 1 or m < 0:
        raise ValidationError(f"need N >= 1, d >= 1, m >= 0; got N={N}, d={d}, m={m}")
    return N, m, d


def lower_bound_midpoint_formula(N: int, m: int, d: int) -> Fraction:
    """max(0, (m^2 / ((2^d - 1) N) - m) / 2): a floor for any graph with
    volume <= N and m edges."""
    N, m, d = _closed_form_args(N, m, d)
    value = (Fraction(m * m, (2 ** d - 1) * N) - m) / 2
    return value if value > 0 else Fraction(0)


def default_p_max(m: int, N: int) -> int:
    """Largest p with p^3 * N <= m, clamped to [1, 16]."""
    m, N = as_integer(m, "m"), as_integer(N, "N")
    if N < 1 or m < 0:
        raise ValidationError(f"need N >= 1, m >= 0; got m={m}, N={N}")
    p = 1
    while p < 16 and (p + 1) ** 3 * N <= m:
        p += 1
    return p


def _non_primitive(segs):
    """Segments whose coordinate differences share a factor above 1."""
    return [seg for seg in segs if gcd_reduce(seg)[1] != 1]


def check_p_max(p_max: int) -> int:
    """p_max as an int; ValidationError unless the essential-pgrid level
    p_max is an integer >= 1 (a bool, float or string is refused)."""
    p_max = as_integer(p_max, "p_max")
    if p_max < 1:
        raise ValidationError(f"p_max must be >= 1, got {p_max}")
    return p_max


def _essential_pgrid(segs, p_max: int) -> BoundCertificate:
    """The certificate from levels 1..p_max of primitive segments."""
    pairs, points = zip(*(_level(segs, p) for p in range(1, p_max + 1)))
    return BoundCertificate("essential-pgrid", Fraction(sum(pairs)), p_max, tuple(enumerate(points, 1)))


def lower_bound_essential_pgrid(g: GridGraph, p_max: int | None = None,
                                check_proper: bool = True) -> BoundCertificate:
    """Bucket the phi(p) level-p points of every edge by level and position,
    for p = 1..p_max (default_p_max if None); the incidence records the
    points bucketed at each level.

    Refuses graphs with a non-primitive edge: the level argument needs
    coprime coordinate differences (and primitivity is also what rules out
    collinear-overlap pairs, which would break the bound).
    """
    if check_proper:
        require_proper(g)
    segs = g.segments()
    bad = _non_primitive(segs)
    if bad:
        raise ValidationError(
            f"{len(bad)} non-primitive edge(s), first {bad[0][0]}->{bad[0][1]}; "
            "reduce edges first if a certificate for the reduced graph is acceptable")
    if p_max is None:
        p_max = default_p_max(len(segs), compute_volume(g)) if g.vertices else 1
    return _essential_pgrid(segs, check_p_max(p_max))


def lower_bound_greedy_removal(N: int, m: int, d: int) -> int:
    """max(0, m - (2^d - 1) N): every edge beyond the crossing-free maximum
    forces at least one crossing."""
    N, m, d = _closed_form_args(N, m, d)
    return max(0, m - (2 ** d - 1) * N)


def certify(g: GridGraph, p_max: int | None = None):
    """Every certificate for g: (p_max used, {kind: value}).

    Kinds in order: midpoint-bucket, essential-pgrid, greedy-removal and
    midpoint-formula. essential-pgrid is None exactly when g has a
    non-primitive edge. p_max defaults to default_p_max, and a graph with no
    vertices counts as volume 1. Raises ImproperGraphError if an edge passes
    through a vertex.
    """
    require_proper(g)
    volume = compute_volume(g) if g.vertices else 1
    m = len(g.edges)
    p_max = check_p_max(default_p_max(m, volume) if p_max is None else p_max)
    segs = g.segments()
    return p_max, {
        "midpoint-bucket": lower_bound_midpoint_bucket(g, check_proper=False).value,
        "essential-pgrid": None if _non_primitive(segs) else _essential_pgrid(segs, p_max).value,
        "greedy-removal": lower_bound_greedy_removal(volume, m, g.dim),
        "midpoint-formula": lower_bound_midpoint_formula(volume, m, g.dim),
    }
