"""The one pairwise segment-crossing kernel, exact at any coordinate size.

crossing_pairs first moves the origin to the minimum corner of the
endpoints. A block-vectorized filter selects the candidate pairs, and one
batched exact classification, the array counterpart of the rational one in
geom, decides them. The filter keeps the pairs whose bounding boxes meet
and, in three or more dimensions, whose 3x3 minor det[u, v, w] on axes
0..2 (below) is 0, by one integer matmul per tile: L @ R = -det[u, v, w]
there for the Pluecker coordinates L = (u, a x u) and R = (c x v, v). The
box corners are only compared, so they are stored in the smallest type
that holds the spread (below): uint8 on the benchmark drawings.
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

The same code runs on int64 arrays when the spread of the coordinates (the
largest max - min over the axes) is at most 2C, C = SAFE_COORD, and on
object arrays of Python ints, which never wrap around, otherwise. Endpoints
that fit int64 go into int64 arrays directly; only the others, and spreads
past 2C, pass through Python ints. The int64 path is exact because after
the translation every coordinate lies in [0, 2C], so every entry of
u = b - a, v = d - c, w = c - a and d - a is at most 2C in magnitude. Then
every 2x2 minor, det, tn and sn among them, is at most 8C^2, and every
product of a 2x2 minor with an entry is at most 16C^3 < 2^63: no single
product overflows. The only sums that may wrap around are the tile
filter's L @ R and the meet check's tn*u_k - sn*v_k - det*w_k, and each is
+- a 3x3 minor of [u, v, w]: a x u and c x v are 2x2 minors, so each of
the six products of L @ R is at most 16C^3, and the meet difference is the
minor that borders the pivot with axis k. Only their comparison with 0 is
used. int64 arithmetic is exact modulo 2^64, and a 3x3 determinant with
entries of magnitude at most 2C is at most 4*(2C)^3 = 32C^3 < 2^64 in
magnitude, so each computes as 0 exactly when it is 0.

The working set is fixed. Apart from O(m*d) copies of the endpoints and the
12 Pluecker entries per segment, the kernel holds one tile and one chunk at
a time. A tile of the filter is at most BLOCK x BLOCK = 2^16 pairs: its
int64 matmul product takes 512 KiB and is freed before the tile's chunks
run, and the flat index of its survivors takes at most 128 KiB. A chunk
sends at most BATCH = 2^14 of them to the exact classification, which
works one axis or one minor at a time on the rows of one pivot pass. It
keeps about 12 live entries per chunk row at its peak in 2-d to 5-d on
skew rows, and 12-15 on parallel rows. So for d <= 4 the transient arrays
stay under 4 MB on the int64 path, whatever m is and however many pairs
survive; that worst case needs nearly every pair of a tile to pass both
filters. tracemalloc peaks of count_pairs are 0.9-1.3 MiB on the layered
and tiled drawings, at most 2.3 MiB on graphs of up to 4096 edges in 2-d
to 4-d, and 2.3-2.8 MiB on a fan of 2500 segments in one plane, in 2-d to
5-d, whose boxes nearly all overlap. On the object path the same arrays
hold the same number of entries, each a Python int.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

SAFE_COORD = 800_000  # int64 runs spreads up to 2 * SAFE_COORD; 32 * SAFE_COORD^3 < 2^64
BLOCK = 256  # segments per side of one bounding-box filter tile (<= 2^16 pairs, 128 KiB of indices)
BATCH = 1 << 14  # candidate pairs per exact classification call (about 2 MB at d = 4)


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
    neg = det < 0
    np.negative(tn, out=tn, where=neg)
    np.negative(sn, out=sn, where=neg)
    det = abs(det)
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


def _parallel_crosses(At, Ut, si, sj):
    # parallel directions: crossing needs collinear supports, w parallel to
    # u, and overlapping open projections on the axis rr where |u| is
    # largest (the first such axis)
    rr = np.argmax(abs(Ut.take(si, axis=1)), axis=0)
    span = Ut[rr, si]
    pc = At[rr, sj] - At[rr, si]  # w on axis rr
    ok = np.ones(si.size, dtype=bool)
    for k in range(At.shape[0]):  # u[rr] * w - w[rr] * u == 0
        lhs = At[k].take(sj) - At[k].take(si)
        lhs *= span
        ok &= lhs == pc * Ut[k].take(si)
    pd = pc + Ut[rr, sj]  # d - a on axis rr
    neg = span < 0
    np.negative(span, out=span, where=neg)
    np.negative(pc, out=pc, where=neg)
    np.negative(pd, out=pd, where=neg)
    low = np.maximum(np.minimum(pc, pd), 0)
    high = np.minimum(np.maximum(pc, pd), span)
    return ok & (low < high)


def _crossing_rows(At, Ut, si, sj):
    """Mask of the k for which segment si[k] (a + t*u) crosses segment
    sj[k] (c + s*v): a proper point cross or a collinear overlap.

    At and Ut are (dim, m) arrays: column e holds the start a and the
    direction b - a of segment e.
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
        skew = det.nonzero()[0]
        if skew.size:
            out[rows[skew]] = _skew_crosses(At, Ut, si[skew], sj[skew], det[skew], i, j)
        par = (det == 0).nonzero()[0]
        del det, skew
        rows, si, sj = rows[par], si[par], sj[par]
        if not rows.size:
            return out
    out[rows] = _parallel_crosses(At, Ut, si, sj)
    return out


def _endpoints(A, B, limit=2 * SAFE_COORD):
    # the (2, m, d) array of the m >= 1 points A and B moved to their
    # minimum corner: int64 when the spread is at most limit (< 2^63), Python
    # ints otherwise; only coordinates past int64 go through Python ints first
    try:
        P = np.array([A, B], dtype=np.int64)
    except OverflowError:
        pass
    else:
        lo = P.min(axis=(0, 1))
        if max(int(h) - int(l) for h, l in zip(P.max(axis=(0, 1)), lo)) <= limit:
            P -= lo
            return P
    P = np.array([A, B], dtype=object)
    P = P - P.min(axis=(0, 1))
    return P.astype(np.int64) if P.max() <= limit else P


def _boxes(A, B):
    # the (dim, m) low and high box corners of the segments A[e] -> B[e],
    # their coordinates in [0, spread]. They are only compared, so they take
    # the smallest type that holds the spread: uint8 on small drawings,
    # object past uint64.
    hi = np.maximum(A, B).T
    box = np.min_scalar_type(hi.max())
    return np.minimum(A, B).T.astype(box, order="C"), hi.astype(box, order="C")


def _pairs(P):
    A, B = P
    m, dim = A.shape
    lo, hi = _boxes(A, B)
    At = np.ascontiguousarray(A.T)
    Ut = np.ascontiguousarray((B - A).T)
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
                mask &= L[i0:i1] @ R[:, j0:j1] == 0
            # the survivors' flat indices, in the smallest type that holds them
            flat = np.flatnonzero(mask).astype(np.min_scalar_type(mask.size - 1))
            for c0 in range(0, flat.size, BATCH):
                si, sj = np.divmod(flat[c0:c0 + BATCH].astype(np.intp), j1 - j0)
                si += i0
                sj += j0
                crossed = _crossing_rows(At, Ut, si, sj)
                yield si[crossed], sj[crossed]


def crossing_pairs(A, B):
    """Yield (si, sj) index arrays, si < sj elementwise, of the crossing pairs
    among the open segments A[e] -> B[e]; each crossing pair comes once.

    A and B hold m points of d integer coordinates each (sequences or
    arrays), of any magnitude.
    """
    if len(A) >= 2:
        yield from _pairs(_endpoints(A, B))


def count_pairs(A, B):
    """Count crossing pairs among m segments A[e] -> B[e]; returns
    (total, per_edge, dtype): per_edge an int64 array of length m, and dtype
    the kernel's array type, "int64" or "object" (None with fewer than two
    segments, where no arrays are built)."""
    per_edge = np.zeros(len(A), dtype=np.int64)
    if len(A) < 2:
        return 0, per_edge, None
    P = _endpoints(A, B)
    total = 0
    for si, sj in _pairs(P):
        total += si.size
        np.add.at(per_edge, si, 1)
        np.add.at(per_edge, sj, 1)
    return total, per_edge, P.dtype.name
