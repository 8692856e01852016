"""The one pairwise segment-crossing kernel, exact at any coordinate size.

crossing_pairs first moves the origin to the minimum corner of the
endpoints. A block-vectorized filter selects the candidate pairs, and one
batched exact classification, the array counterpart of the rational one in
geom, decides them. The filter keeps the pairs whose open segments' boxes
meet and, in three or more dimensions, whose 3x3 minor det[u, v, w] on axes
0..2 (below) is 0, by one integer product per tile: L @ R = -det[u, v, w]
there for the Pluecker coordinates L = (u, a x u) and R = (c x v, v). A box
is kept in doubled coordinates, [2 min + 1, 2 max - 1] on an axis where the
segment moves and [2x, 2x] where it is flat: for integer endpoints two such
boxes meet iff the open projections meet on every axis, so a shared
endpoint alone never passes. The corners, in [0, 2S] for the spread S
(below), are only compared, so they take the smallest type that holds
them: uint8 up to S = 127, which covers the benchmark drawings.
The filter only drops pairs that the exact classification rejects; that
classification alone decides. For the segments a + t*u and c + s*v, t and
s in (0, 1), with w = c - a, it takes the steps of geom.segments_cross:

* the pivot: the first nonzero 2x2 minor det = v_i u_j - u_i v_j of (u, v)
  over the axis pairs (i, j) in order. One pass per axis pair takes the
  minor on the rows whose earlier minors are all 0 and decides the rows
  where it is nonzero; the rows left after the last pass (all of them in
  one dimension) are parallel.
* skew pairs, with the pivot (i, j): t = tn/det and s = sn/det solve
  t*u - s*v = w on axes i and j, the numerators tn and sn being 2x2 minors
  too. There the solution holds by Cramer's rule; the supports meet iff it
  holds on every other axis k, tn*u_k - sn*v_k == det*w_k, and then the
  segments cross iff t and s both lie in (0, 1).
* parallel pairs, without a pivot: the supports must be collinear and the
  open projections on the axis where |u| is largest must overlap.

The same code runs on signed integer arrays of the narrowest width that
is exact at the spread S of the coordinates (the largest max - min over
the axes): int16 up to S = 31, int32 up to S = 1290, int64 up to
S = 2C, C = SAFE_COORD, and object arrays of Python ints, which never
wrap around, past 2C. Endpoints that fit int64 are gathered from one int64
array of the points; only the others, and spreads past 2C, pass through
Python ints. After the translation every coordinate lies in [0, S], so
every entry of u = b - a, v = d - c, w = c - a and d - a is at most S in
magnitude, every 2x2 minor (det, tn and sn among them) at most 2S^2, and
every product of an entry with an entry at most S^2: every value that is
ordered or whose sign is read fits the type. The only sums that may wrap
around are the tile filter's L @ R and the meet check's
tn*u_k - sn*v_k - det*w_k, and each is +- a 3x3 minor of [u, v, w]: the
product L @ R is -det[u, v, w] on axes 0..2, and the meet difference is
the minor that borders the pivot with axis k. Only their comparison with 0
is used. On three axes det[u, v, w] = +- det[b - a, c - a, d - a] is six
times the volume of the tetrahedron abcd in [0, S]^3, at most S^3/3 (the
determinant is affine in each vertex, so its largest value sits at cube
corners), so |det| <= 2S^3; opposite edges of the regular tetrahedron
(0, 0, 0), (S, S, 0), (S, 0, S), (0, S, S) reach it. Integer arithmetic is
exact modulo 2^bits, so each computes as 0 exactly when it is 0 while
2S^3 < 2^bits: 2 * 31^3 < 2^16, 2 * 1290^3 < 2^32 and 2 * (2C)^3 < 2^64.
The tile product goes through einsum, which has a fast integer loop
where numpy's integer matmul has none.

The working set is fixed. Apart from O(m*d) copies of the endpoints, the
12 Pluecker entries and the axis of largest |u| per segment, the kernel
holds one tile and one chunk at a time. A tile of the filter is at most
BLOCK x BLOCK = 2^16 pairs: its product takes 128 KiB in int16 (512 KiB in
int64) and is freed before the tile's chunks run, and the flat index of
its survivors takes at most 128 KiB. A chunk sends at most BATCH = 2^14 of
them to the exact classification, which works one axis or one minor at a
time on the rows of one pivot pass. At its peak it keeps about 12
int64-sized entries per chunk row in 2-d to 5-d on int64 arrays, skew or
parallel rows, and 6-7 on int16 arrays, where the row indices stay 8
bytes. So for d <= 4 the transient arrays stay under 4 MB on the int64
path, whatever m is and however many pairs survive; that worst case needs
nearly every pair of a tile to pass both filters. tracemalloc peaks of
count_pairs are 0.35-0.75 MiB on the layered and tiled drawings (int16),
at most 1.8 MiB on graphs of up to 4096 edges in 2-d to 4-d, and
1.8-2.0 MiB on a fan of 2500 segments in one plane, in 2-d to 5-d (int32),
whose boxes nearly all overlap. On the object path the same arrays hold the
same number of entries, each a Python int.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

SAFE_COORD = 800_000  # int64 runs spreads up to 2 * SAFE_COORD; 16 * SAFE_COORD^3 < 2^64
BLOCK = 256  # segments per side of one bounding-box filter tile (<= 2^16 pairs, 128 KiB of indices)
BATCH = 1 << 14  # candidate pairs per exact classification call (about 1.6 MB in int64)


def _skew_crosses(At, Ut, si, sj, det, i, j):
    # skew directions with the pivot (i, j): t = tn/det and s = sn/det solve
    # t*u - s*v = w on axes i and j, where it holds by Cramer's rule. The
    # open segments cross iff t and s both lie in (0, 1) and the supports
    # meet, that is tn*u_k - sn*v_k == det*w_k on every other axis k (the
    # check is the same after tn, sn and det all change sign). This branch
    # sets the kernel's peak, so every temporary goes as soon as it is spent.
    wi = At[i].take(sj)
    wi -= At[i].take(si)
    wj = At[j].take(sj)
    wj -= At[j].take(si)
    tn = Ut[i].take(sj) * wj
    t = Ut[j].take(sj)
    t *= wi
    tn -= t
    sn = Ut[i].take(si) * wj
    del wj
    t = Ut[j].take(si)
    t *= wi
    sn -= t
    del wi, t
    sign = np.sign(det)
    tn *= sign
    sn *= sign
    det *= sign
    ok = (0 < tn) & (tn < det) & (0 < sn) & (sn < det)
    for k in range(At.shape[0]):
        if k == i or k == j:
            continue
        lhs = Ut[k].take(si)
        lhs *= tn
        t = Ut[k].take(sj)
        t *= sn
        lhs -= t
        t = At[k].take(sj)
        t -= At[k].take(si)
        t *= det
        ok &= lhs == t
    return ok


def _parallel_crosses(At, Ut, rr, si, sj):
    # parallel directions: crossing needs collinear supports, w parallel to
    # u, and overlapping open projections on the axis rr[si] where |u| is
    # largest (the first such axis)
    rr = rr.take(si)
    span = Ut[rr, si]
    pc = At[rr, sj] - At[rr, si]  # w on axis rr
    ok = np.ones(si.size, dtype=bool)
    for k in range(At.shape[0]):  # u[rr] * w - w[rr] * u == 0
        lhs = At[k].take(sj) - At[k].take(si)
        lhs *= span
        ok &= lhs == pc * Ut[k].take(si)
    pd = pc + Ut[rr, sj]  # d - a on axis rr
    sign = np.sign(span)
    pc *= sign
    pd *= sign
    span *= sign
    low = np.maximum(np.minimum(pc, pd), 0)
    high = np.minimum(np.maximum(pc, pd), span)
    return ok & (low < high)


def _crossing_rows(At, Ut, rr, si, sj):
    """Mask of the k for which segment si[k] (a + t*u) crosses segment
    sj[k] (c + s*v): a proper point cross or a collinear overlap.

    At and Ut are (dim, m) arrays: column e holds the start a and the
    direction b - a of segment e, and rr[e] is the first axis where |b - a|
    is largest.
    """
    # one pass per axis pair (i, j) in order, as in geom.segments_cross: the
    # 2x2 minor det = v_i*u_j - u_i*v_j on the rows whose earlier minors are
    # all 0. Where it is nonzero, (i, j) is the pivot; the rows left after
    # the last pass (all rows in one dimension) are parallel.
    out = np.zeros(si.size, dtype=bool)
    rows = np.arange(si.size)
    for i, j in combinations(range(At.shape[0]), 2):
        det = Ut[i].take(sj) * Ut[j].take(si)
        t = Ut[i].take(si)
        t *= Ut[j].take(sj)
        det -= t
        del t
        skew = (det != 0).nonzero()[0]
        if skew.size:
            out[rows[skew]] = _skew_crosses(At, Ut, si[skew], sj[skew], det[skew], i, j)
        par = (det == 0).nonzero()[0]
        del det, skew
        rows, si, sj = rows[par], si[par], sj[par]
        if not rows.size:
            return out
    out[rows] = _parallel_crosses(At, Ut, rr, si, sj)
    return out


def _width(spread):
    # the narrowest signed type whose modulus exceeds 2 * spread^3 (module
    # docstring), int64 past 2^32: int16 to spread 31, int32 to 1290
    bound = 2 * spread ** 3
    return np.int16 if bound < 1 << 16 else np.int32 if bound < 1 << 32 else np.int64


def _endpoints(V, E, limit=2 * SAFE_COORD):
    # the (2, m, d) array of the endpoints V[a] and V[b] of the m >= 1 edges
    # (a, b) in E, moved to their minimum corner: in the _width of their
    # spread while it is at most limit (< 2^63), Python ints otherwise; only
    # points past int64 go through Python ints first
    E = np.fromiter(chain.from_iterable(E), np.intp, 2 * len(E)).reshape(-1, 2).T
    try:
        P = np.fromiter(chain.from_iterable(V), np.int64, len(V) * len(V[0])).reshape(len(V), -1)[E]
    except OverflowError:
        P = np.array(V, dtype=object)[E]
    else:
        lo = P.min(axis=(0, 1))
        spread = max(int(h) - int(l) for h, l in zip(P.max(axis=(0, 1)), lo))
        if spread <= limit:
            P -= lo
            return P.astype(_width(spread), copy=False)
        P = P.astype(object)
    P = P - P.min(axis=(0, 1))
    spread = P.max()
    return P.astype(_width(spread)) if spread <= limit else P


def _boxes(A, B):
    # the (dim, m) low and high box corners of the open segments A[e] -> B[e],
    # doubled (module docstring): open (l, h) and (l', h') meet iff
    # 2 max(l, l') + 1 <= 2 min(h, h') - 1. Doubling cannot wrap, since
    # 2 S^3 < 2^bits gives 2 S < 2^(bits - 1); the smallest type that holds
    # 2 S takes the corners: uint8 up to S = 127, object from S = 2^63.
    moves = (A != B).T
    lo = 2 * np.minimum(A, B).T + moves
    hi = 2 * np.maximum(A, B).T - moves
    box = np.min_scalar_type(hi.max())
    return lo.astype(box, order="C"), hi.astype(box, order="C")


def _pairs(P):
    A, B = P
    m, dim = A.shape
    lo, hi = _boxes(A, B)
    At = np.ascontiguousarray(A.T)
    Ut = np.ascontiguousarray((B - A).T)
    rr = np.argmax(abs(Ut), axis=0)
    if dim >= 3:
        # Pluecker coordinates (u, a x u) of segment i and (c x v, v) of
        # segment j, on axes 0..2: L[i] @ R[:, j] is -det[u, v, c - a] there,
        # which is 0 for every pair that crosses
        a, u = A[:, :3], Ut[:3].T
        L = np.concatenate([u, a[:, [1, 2, 0]] * u[:, [2, 0, 1]] - a[:, [2, 0, 1]] * u[:, [1, 2, 0]]], axis=1)
        R = np.ascontiguousarray(L[:, [3, 4, 5, 0, 1, 2]].T)
    for i0 in range(0, m, BLOCK):
        i1 = min(m, i0 + BLOCK)
        for j0 in range(i0, m, BLOCK):
            j1 = min(m, j0 + BLOCK)
            # only a diagonal tile holds pairs with i >= j
            mask = np.arange(i0, i1)[:, None] < np.arange(j0, j1) if j0 == i0 else True
            for ax in range(dim):
                mask &= lo[ax, j0:j1] <= hi[ax, i0:i1, None]
                mask &= lo[ax, i0:i1, None] <= hi[ax, j0:j1]
            if dim >= 3 and mask.any():
                mask &= np.einsum("ik,kj->ij", L[i0:i1], R[:, j0:j1]) == 0
            # the survivors' flat indices, in the smallest type that holds them
            flat = np.flatnonzero(mask).astype(np.min_scalar_type(mask.size - 1))
            for c0 in range(0, flat.size, BATCH):
                sj = flat[c0:c0 + BATCH].astype(np.intp)
                si = sj // (j1 - j0)
                sj += j0 - si * (j1 - j0)
                si += i0
                crossed = _crossing_rows(At, Ut, rr, si, sj)
                yield si[crossed], sj[crossed]


def crossing_pairs(V, E):
    """Yield (si, sj) index arrays, si < sj elementwise, of the crossing pairs
    among the open segments V[a] -> V[b] of the edges (a, b) in E; each
    crossing pair comes once.

    V holds points of d integer coordinates each (a sequence or an array),
    of any magnitude, and E pairs of indices into V.
    """
    if len(E) >= 2:
        yield from _pairs(_endpoints(V, E))


def count_pairs(V, E):
    """Count crossing pairs among the segments V[a] -> V[b] of the m edges
    (a, b) in E; returns (total, per_edge, dtype): per_edge an int64 array
    of length m, and dtype the kernel's array type, "int16", "int32",
    "int64" or "object" (None with fewer than two segments, where no arrays
    are built)."""
    per_edge = np.zeros(len(E), dtype=np.int64)
    if len(E) < 2:
        return 0, per_edge, None
    P = _endpoints(V, E)
    total = 0
    for si, sj in _pairs(P):
        total += si.size
        np.add.at(per_edge, si, 1)
        np.add.at(per_edge, sj, 1)
    return total, per_edge, P.dtype.name
