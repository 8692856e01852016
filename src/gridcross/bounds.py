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

Both bucket kinds sort one array of keys per level. With the endpoints
moved to their minimum corner, a the start and u = b - a of an edge, the
level-p point at parameter i/p, gcd(i, p) = 1, is n/p for the row
n = p*a + i*u. Each entry of n lies in [0, p_max * S], S the spread (the
largest max - min over the axes), so the key n @ base^(0..d-1) in base
p_max * S + 1 is one-to-one on the rows, and the runs of equal keys are the
buckets. The keys lie in [0, base^d), so they are int64 when
base^d <= 2^63 and object arrays of Python ints otherwise
(BoundCertificate.dtype). numpy loads on the first pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ValidationError, as_integer
from .graph import GridGraph, compute_volume, require_proper


@dataclass(frozen=True)
class BoundCertificate:
    kind: str
    value: Fraction
    p_max: int | None = None
    incidence: tuple | None = None  # ((p, level-p points over all edges), ...) for essential-pgrid
    # the bucket keys' type, "int64" or "object" by the module docstring's
    # rule, None for a closed form; it says how, not what, so == ignores it
    dtype: str | None = field(default=None, compare=False, repr=False)


def _edges(g: GridGraph):
    """(P, bad): P the (2, m, d) array of g's edge endpoints moved to their
    minimum corner, a fixed-width integer type when the spread fits int64
    and Python ints otherwise, and bad the indices of the non-primitive
    edges."""
    import numpy as np

    from . import _kernels
    if g.edges:
        P = _kernels._endpoints(g.vertices, g.edges, np.iinfo(np.int64).max)
    else:
        P = np.zeros((2, 0, g.dim), dtype=np.int64)
    return P, np.flatnonzero(np.gcd.reduce(P[1] - P[0], axis=1) != 1)


def _levels(P, p_max: int):
    """(dtype, pairs, points) for the edges P of _edges: at level p = 1..p_max,
    points[p - 1] counts the keys of the rows n of all edges and pairs[p - 1]
    sums C(R, 2) over the sizes R of the runs of equal keys."""
    import numpy as np
    d = P.shape[2]
    base = p_max * int(P.max(initial=0)) + 1
    w = np.array([base ** k for k in range(d)], dtype=np.int64 if base ** d <= 2 ** 63 else object)
    ka, ku = P[0] @ w, (P[1] - P[0]) @ w  # the key of n = p*a + i*u is p*ka + i*ku
    levels = [(0, 0)]  # level 1: i runs over 1..p - 1, so no rows
    for p in range(2, p_max + 1):
        i = np.array([i for i in range(1, p) if gcd(i, p) == 1], dtype=w.dtype)
        key = np.sort((p * ka[:, None] + i * ku[:, None]).ravel())
        r = np.diff(np.flatnonzero(np.r_[True, key[1:] != key[:-1], True]))
        levels.append((int((r * (r - 1) // 2).sum()), key.size))
    return (w.dtype.name, *zip(*levels))


def lower_bound_midpoint_bucket(g: GridGraph, check_proper: bool = True) -> BoundCertificate:
    """Sum C(R, 2) over edges sharing a midpoint: level 2 of every edge, keyed by a + b."""
    if check_proper:
        require_proper(g)
    dtype, pairs, _ = _levels(_edges(g)[0], 2)
    return BoundCertificate("midpoint-bucket", Fraction(pairs[1]), dtype=dtype)


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


def check_p_max(p_max: int) -> int:
    """p_max as an int; ValidationError unless the essential-pgrid level
    p_max is an integer >= 1 (a bool, float or string is refused)."""
    p_max = as_integer(p_max, "p_max")
    if p_max < 1:
        raise ValidationError(f"p_max must be >= 1, got {p_max}")
    return p_max


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
    P, bad = _edges(g)
    if bad.size:
        a, b = (g.vertices[v] for v in g.edges[bad[0]])
        raise ValidationError(
            f"{bad.size} non-primitive edge(s), first {a}->{b}; "
            "reduce edges first if a certificate for the reduced graph is acceptable")
    if p_max is None:
        p_max = default_p_max(len(g.edges), compute_volume(g)) if g.vertices else 1
    p_max = check_p_max(p_max)
    dtype, pairs, points = _levels(P, p_max)
    return BoundCertificate("essential-pgrid", Fraction(sum(pairs)), p_max,
                            tuple(enumerate(points, 1)), dtype)


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
    through a vertex. midpoint-bucket is level 2 of the one bucket pass,
    which stops there on a graph with a non-primitive edge.
    """
    require_proper(g)
    volume = compute_volume(g) if g.vertices else 1
    m = len(g.edges)
    p_max = check_p_max(default_p_max(m, volume) if p_max is None else p_max)
    P, bad = _edges(g)
    primitive = not bad.size
    pairs = _levels(P, max(p_max, 2) if primitive else 2)[1]
    return p_max, {
        "midpoint-bucket": Fraction(pairs[1]),
        "essential-pgrid": Fraction(sum(pairs[:p_max])) if primitive else None,
        "greedy-removal": lower_bound_greedy_removal(volume, m, g.dim),
        "midpoint-formula": lower_bound_midpoint_formula(volume, m, g.dim),
    }
