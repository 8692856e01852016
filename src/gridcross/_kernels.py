"""The one pairwise segment-crossing kernel, exact at any coordinate size.

crossing_pairs first moves the origin to the minimum corner of the
endpoints. A block-vectorized bounding-box filter selects the candidate
pairs. In three or more dimensions a coplanarity prefilter drops every
candidate pair whose four endpoints do not lie in one plane, as those of two
crossing open segments must. A batched exact classification, the array
counterpart of the rational one in geom, decides the pairs that are left.

The same code runs on int64 arrays when the spread of the coordinates (the
largest max - min over the axes) is at most 2C, C = SAFE_COORD, and on
object arrays of Python ints, which never wrap around, otherwise. The int64
path is exact because after the translation every coordinate lies in
[0, 2C], so every entry of u = b - a, v = d - c, w = c - a and d - a is at
most 2C in magnitude. Then every 2x2 minor is at most 8C^2 and every
product of a 2x2 minor with an entry at most 16C^3 < 2^63: no single
product overflows. Sums of two or three such products may wrap around,
and two checks rely on that being harmless:

* the prefilter's det[u, v, w] on axes 0..2, and
* the consistency check tn*u_k - sn*v_k == det*w_k, whose two sides differ
  by the 3x3 minor of (u, v, w) on axes (pi, pj, k).

int64 arithmetic is exact modulo 2^64, and a 3x3 determinant with entries of
magnitude at most 2C is at most 4*(2C)^3 = 32C^3 < 2^64 in magnitude. So
such a determinant computes as 0 exactly when it is 0.

The working set is fixed. Apart from O(m*d) copies of the endpoints, the
kernel holds one tile and one chunk at a time. A tile of the bounding-box
filter is at most BLOCK x BLOCK = 2^16 pairs, and its survivors' two index
arrays take at most 1 MiB. A chunk sends at most BATCH = 2^14 of them to
the exact classification, which keeps a few dozen entries per row alive at
its peak (about 50 in 4-d). So for d <= 4 the transient arrays stay under
10 MB on the int64 path, whatever m is and however many pairs survive; that
worst case needs every pair of a tile to pass both filters. tracemalloc
peaks of count_pairs on the layered and tiled drawings and on 2-d graphs
of up to 4096 edges are 2-5 MB. On the object path the same arrays hold the
same number of entries, each a Python int.
"""

from __future__ import annotations

import numpy as np

SAFE_COORD = 800_000  # int64 runs spreads up to 2 * SAFE_COORD; 32 * SAFE_COORD^3 < 2^64
BLOCK = 256  # segments per side of one bounding-box filter tile (<= 2^16 pairs, 1 MiB of indices)
BATCH = 1 << 14  # candidate pairs per exact classification call (a few MB at d = 4)


def _minor_index_arrays(dim):
    ii = []
    jj = []
    for i in range(dim):
        for j in range(i + 1, dim):
            ii.append(i)
            jj.append(j)
    return np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp)


def _crosses_batch(u, v, w):
    # exact open-segment crossing test (proper point cross or collinear
    # overlap) of segments a + t*u and c + s*v, w = c - a, for each row of
    # the row-aligned (n, dim) arrays
    n, dim = u.shape
    rows = np.arange(n)

    mi, mj = _minor_index_arrays(dim)
    if mi.size:
        muv = v[:, mi] * u[:, mj] - u[:, mi] * v[:, mj]
        nonzero = muv != 0
        parallel = ~nonzero.any(axis=1)
    else:  # dim == 1: everything is parallel
        muv = None
        parallel = np.ones(n, dtype=bool)

    out = np.zeros(n, dtype=bool)

    skew = ~parallel
    if skew.any():
        piv = np.argmax(nonzero, axis=1)
        pi = mi[piv]
        pj = mj[piv]
        det = muv[rows, piv]
        wi = w[rows, pi]
        wj = w[rows, pj]
        tn = v[rows, pi] * wj - wi * v[rows, pj]
        sn = u[rows, pi] * wj - wi * u[rows, pj]
        consistent = (tn[:, None] * u - sn[:, None] * v == det[:, None] * w).all(axis=1)
        sgn = np.where(det < 0, -1, 1)
        det2 = det * sgn
        tn2 = tn * sgn
        sn2 = sn * sgn
        inside = (0 < tn2) & (tn2 < det2) & (0 < sn2) & (sn2 < det2)
        out |= skew & consistent & inside

    if parallel.any():
        # parallel directions; crossing needs collinear supports that overlap
        if mi.size:
            muw = u[:, mi] * w[:, mj] - w[:, mi] * u[:, mj]
            collinear = (muw == 0).all(axis=1)
        else:
            collinear = np.ones(n, dtype=bool)
        rr = np.argmax(np.abs(u), axis=1)
        span = u[rows, rr]
        pc = w[rows, rr]
        pd = (w + v)[rows, rr]  # d - a
        sgn = np.where(span < 0, -1, 1)
        span = span * sgn
        pc = pc * sgn
        pd = pd * sgn
        low = np.maximum(np.minimum(pc, pd), 0)
        high = np.minimum(np.maximum(pc, pd), span)
        out |= parallel & collinear & (low < high)

    return out


def _crossing_rows(At, Ut, si, sj):
    """Mask of the k for which segment si[k] crosses segment sj[k].

    At and Ut are (dim, m) arrays: column e holds the start a and the
    direction b - a of segment e.
    """
    out = np.zeros(si.size, dtype=bool)
    rows = slice(None)
    if At.shape[0] >= 3:
        u = Ut[:3].take(si, axis=1)
        v = Ut[:3].take(sj, axis=1)
        w = At[:3].take(sj, axis=1) - At[:3].take(si, axis=1)
        det = (u[0] * (v[1] * w[2] - v[2] * w[1]) + u[1] * (v[2] * w[0] - v[0] * w[2])
               + u[2] * (v[0] * w[1] - v[1] * w[0]))
        rows = np.flatnonzero(det == 0)
        si = si[rows]
        sj = sj[rows]
    u = Ut.take(si, axis=1).T
    v = Ut.take(sj, axis=1).T
    w = (At.take(sj, axis=1) - At.take(si, axis=1)).T
    out[rows] = _crosses_batch(u, v, w)
    return out


def crossing_pairs(A, B):
    """Yield (si, sj) index arrays, si < sj elementwise, of the crossing pairs
    among the open segments A[e] -> B[e]; each crossing pair comes once.

    A and B hold m points of d integer coordinates each (sequences or
    arrays), of any magnitude.
    """
    m = len(A)
    if m < 2:
        return
    P = np.concatenate([np.array(A, dtype=object), np.array(B, dtype=object)])
    P = P - P.min(axis=0)
    if P.max() <= 2 * SAFE_COORD:
        P = P.astype(np.int64)
    A, B = P[:m], P[m:]
    dim = A.shape[1]
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
            ii, jj = np.nonzero(mask)
            if ii.size == 0:
                continue
            ii += i0
            jj += j0
            for c0 in range(0, ii.size, BATCH):
                si = ii[c0:c0 + BATCH]
                sj = jj[c0:c0 + BATCH]
                crossed = _crossing_rows(At, Ut, si, sj)
                yield si[crossed], sj[crossed]


def count_pairs(A, B):
    """Count crossing pairs among m segments A[e] -> B[e]; returns
    (total, per_edge), per_edge an int64 array of length m."""
    per_edge = np.zeros(len(A), dtype=np.int64)
    total = 0
    for si, sj in crossing_pairs(A, B):
        total += si.size
        np.add.at(per_edge, si, 1)
        np.add.at(per_edge, sj, 1)
    return total, per_edge
