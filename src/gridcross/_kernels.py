"""The one pairwise segment-crossing kernel, exact at any coordinate size.

crossing_pairs first moves the origin to the minimum corner of the
endpoints. A block-vectorized bounding-box filter selects the candidate
pairs. In three or more dimensions a coplanarity prefilter drops every
candidate pair whose four endpoints do not lie in one plane, as those of two
crossing open segments must. A batched exact classification, the array
counterpart of the rational one in geom, decides the pairs that are left.

The same code runs on int64 arrays when the spread of the coordinates (the
largest max - min over the axes) is at most 2C, C = SAFE_COORD, and on
object arrays of Python ints, which never wrap around, otherwise. Endpoints
that fit int64 go into int64 arrays directly; only the others, and spreads
past 2C, pass through Python ints. The int64 path is exact because after
the translation every coordinate lies in [0, 2C], so every entry of
u = b - a, v = d - c, w = c - a and d - a is at most 2C in magnitude. Then
every 2x2 minor is at most 8C^2 and every product of a 2x2 minor with an
entry at most 16C^3 < 2^63: no single product overflows. Sums of two or
three such products may wrap around, and two checks rely on that being
harmless:

* the prefilter's det[u, v, w] on axes 0..2, and
* the consistency check tn*u_k - sn*v_k == det*w_k, whose two sides differ
  by the 3x3 minor of (u, v, w) on axes (pi, pj, k).

int64 arithmetic is exact modulo 2^64, and a 3x3 determinant with entries of
magnitude at most 2C is at most 4*(2C)^3 = 32C^3 < 2^64 in magnitude. So
such a determinant computes as 0 exactly when it is 0.

The working set is fixed. Apart from O(m*d) copies of the endpoints, the
kernel holds one tile and one chunk at a time. A tile of the bounding-box
filter is at most BLOCK x BLOCK = 2^16 pairs, and the flat index of its
survivors takes at most 128 KiB. A chunk sends at most BATCH = 2^14 of them
to the exact classification, which works one axis or one 2x2 minor at a
time. The coplanarity prefilter keeps about 5 live entries per chunk row.
The exact test splits the skew and the parallel rows up front and runs
each branch on its own rows; it keeps about 15 live entries per row at its
peak, in the skew branch. So for d <= 4 the transient arrays stay under
4 MB on the int64 path, whatever m is and however many pairs survive; that
worst case needs nearly every pair of a tile to pass both filters.
tracemalloc peaks of count_pairs are 1.3-1.4 MB on the layered and tiled
drawings, at most 2.4 MB on graphs of up to 4096 edges in 2-d to 4-d, and
2.4-3.0 MB on a fan of 2500 segments in one plane, in 2-d to 4-d, whose
boxes nearly all overlap. On the object path the same arrays hold the same
number of entries, each a Python int.
"""

from __future__ import annotations

import numpy as np

SAFE_COORD = 800_000  # int64 runs spreads up to 2 * SAFE_COORD; 32 * SAFE_COORD^3 < 2^64
BLOCK = 256  # segments per side of one bounding-box filter tile (<= 2^16 pairs, 128 KiB of indices)
BATCH = 1 << 14  # candidate pairs per exact classification call (about 2 MB at d = 4)


def _minor_index_arrays(dim):
    ii = []
    jj = []
    for i in range(dim):
        for j in range(i + 1, dim):
            ii.append(i)
            jj.append(j)
    return np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp)


def _coplanar(At, Ut, si, sj):
    # det[u, v, w] == 0 on axes 0..2, as the sum over k of w_k (u x v)_k,
    # one axis at a time
    det = np.zeros(si.size, dtype=At.dtype)
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c = Ut[i].take(si) * Ut[j].take(sj)
        t = Ut[j].take(si)
        t *= Ut[i].take(sj)
        c -= t
        del t
        w = At[k].take(sj)
        w -= At[k].take(si)
        c *= w
        det += c
    return det == 0


def _pivot_minor(Ut, si, sj, mi, mj):
    # (det, piv): det[k] is the first nonzero 2x2 minor v_i*u_j - u_i*v_j of
    # row k over the axis pairs (i, j) = (mi[p], mj[p]) in order of p, and
    # piv[k] that p; det[k] is 0 exactly when u and v are parallel. Each
    # minor is taken only on the rows whose earlier minors are all 0.
    det = np.zeros(si.size, dtype=Ut.dtype)
    piv = np.zeros(si.size, dtype=np.intp)
    rows = slice(None)
    for p, (i, j) in enumerate(zip(mi, mj)):
        a, b = si[rows], sj[rows]
        minor = Ut[i].take(b) * Ut[j].take(a)
        t = Ut[i].take(a)
        t *= Ut[j].take(b)
        minor -= t
        del t
        det[rows] = minor
        piv[rows] = p
        rows = np.flatnonzero(det == 0)
    return det, piv


def _skew_crosses(At, Ut, si, sj, det, pi, pj):
    # skew directions: the supports meet at a + (tn/det) u = c + (sn/det) v
    # iff tn*u - sn*v == det*w on every axis, and the open segments cross
    # iff both parameters lie in (0, 1). This branch sets the kernel's peak,
    # so every temporary goes as soon as it is spent.
    wi = At[pi, sj]
    wi -= At[pi, si]
    wj = At[pj, sj]
    wj -= At[pj, si]
    tn = Ut[pi, sj] * wj
    t = Ut[pj, sj]
    t *= wi
    tn -= t
    del t
    sn = Ut[pi, si] * wj
    del wj
    t = Ut[pj, si]
    t *= wi
    sn -= t
    del wi, pi, pj, t
    ok = np.ones(si.size, dtype=bool)
    for k in range(At.shape[0]):
        lhs = tn * Ut[k].take(si)
        t = sn * Ut[k].take(sj)
        lhs -= t
        del t
        w = At[k].take(sj)
        w -= At[k].take(si)
        w *= det
        ok &= lhs == w
    neg = det < 0
    np.negative(tn, out=tn, where=neg)
    np.negative(sn, out=sn, where=neg)
    det = abs(det)
    return ok & (0 < tn) & (tn < det) & (0 < sn) & (sn < det)


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


def _crosses_batch(At, Ut, si, sj):
    # exact open-segment crossing test (proper point cross or collinear
    # overlap) of segment si[k], a + t*u, against segment sj[k], c + s*v,
    # w = c - a, for each k; skew and parallel rows each take their own branch
    mi, mj = _minor_index_arrays(At.shape[0])
    det, piv = _pivot_minor(Ut, si, sj, mi, mj)
    out = np.zeros(si.size, dtype=bool)
    par = np.flatnonzero(det == 0)
    skew = np.flatnonzero(det)
    det = det[skew]
    piv = piv[skew]
    if skew.size:
        out[skew] = _skew_crosses(At, Ut, si[skew], sj[skew], det, mi[piv], mj[piv])
    del det, piv, skew  # the parallel branch runs without them
    if par.size:
        out[par] = _parallel_crosses(At, Ut, si[par], sj[par])
    return out


def _crossing_rows(At, Ut, si, sj):
    """Mask of the k for which segment si[k] crosses segment sj[k].

    At and Ut are (dim, m) arrays: column e holds the start a and the
    direction b - a of segment e.
    """
    if At.shape[0] < 3:
        return _crosses_batch(At, Ut, si, sj)
    out = np.zeros(si.size, dtype=bool)
    rows = np.flatnonzero(_coplanar(At, Ut, si, sj))
    out[rows] = _crosses_batch(At, Ut, si[rows], sj[rows])
    return out


def _endpoints(A, B):
    # the (2, m, d) array of the points A and B moved to their minimum
    # corner: int64 when the spread is at most 2 * SAFE_COORD, Python ints
    # otherwise; only coordinates past int64 go through Python ints first
    try:
        P = np.array([A, B], dtype=np.int64)
    except OverflowError:
        pass
    else:
        lo = P.min(axis=(0, 1))
        if max(int(h) - int(l) for h, l in zip(P.max(axis=(0, 1)), lo)) <= 2 * SAFE_COORD:
            P -= lo
            return P
    P = np.array([A, B], dtype=object)
    P = P - P.min(axis=(0, 1))
    return P.astype(np.int64) if P.max() <= 2 * SAFE_COORD else P


def _pairs(P):
    A, B = P
    m, dim = A.shape
    lo = np.minimum(A, B)
    hi = np.maximum(A, B)
    At = np.ascontiguousarray(A.T)
    Ut = np.ascontiguousarray((B - A).T)
    for i0 in range(0, m, BLOCK):
        i1 = min(m, i0 + BLOCK)
        for j0 in range(i0, m, BLOCK):
            j1 = min(m, j0 + BLOCK)
            mask = (np.arange(i0, i1)[:, None] < np.arange(j0, j1)[None, :])
            for ax in range(dim):
                mask &= lo[j0:j1, ax][None, :] <= hi[i0:i1, ax][:, None]
                mask &= lo[i0:i1, ax][:, None] <= hi[j0:j1, ax][None, :]
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
