"""Euler totient tables, refinement levels of rational points, and the
exact partial sums used by the crossing lower bounds.

A rational point "lives at level p" when p is the least common multiple of
the reduced denominators of its coordinates; level-p points of distinct p
never coincide. On a primitive segment, the points at parameters i/p with
gcd(i, p) = 1 are exactly the level-p points the segment carries, and there
are phi(p) of them for p >= 2 (none for p = 1, since i ranges over 1..p-1).

The weighted sum s3(n) = sum phi(i)^2 / i^3 is a Fraction whose reduced
denominator grows like lcm(1..n)^3 (about 43k bits at n = 10^4), so reducing
it at every step dominates a scan. `partial_sums` still does, because it
yields every row; `totient_sums` sums by binary splitting over the lcm of
each half and reduces once (`_s3_exact`); `verify_totient_inequalities`
decides from integer bounds on s3 * 2^_S3_BITS and calls `_s3_exact` only
where those bounds leave a decision open. Each decision is settled by
integer comparisons or by the exact value, so the three agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .geom import gcd_reduce


@dataclass(frozen=True, eq=False)
class TotientTable:
    n_max: int
    phi: np.ndarray  # phi[i] for 0 <= i <= n_max; phi[0] = 0

    def __getitem__(self, i: int) -> int:
        return int(self.phi[i])


def totient_sieve(n_max: int) -> TotientTable:
    """Exact phi(1..n_max) via the standard multiplicative sieve."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    phi = np.arange(n_max + 1, dtype=np.int64)
    phi[0] = 0
    for p in range(2, n_max + 1):
        if phi[p] == p:  # untouched so far, hence prime
            phi[p::p] -= phi[p::p] // p
    return TotientTable(n_max, phi)


def essential_level(point) -> int:
    """The unique refinement level of a rational point: lcm of reduced denominators."""
    level = 1
    for x in point:
        d = x.denominator if isinstance(x, Fraction) else 1
        level = level * d // math.gcd(level, d)
    return level


def edge_pgrid_points(seg, p: int):
    """Subdivision points of a primitive segment at denominator p.

    Returns (P, Q): P holds the points at parameters i/p for i = 1..p-1;
    Q is the subsequence with gcd(i, p) = 1. Every member of Q has
    essential_level exactly p, and |Q| = phi(p) for p >= 2.
    """
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    direction, g = gcd_reduce(seg)
    if g != 1:
        raise ValidationError(f"segment {seg[0]}->{seg[1]} is not primitive (gcd {g})")
    a, b = seg
    full, coprime = [], []
    for i in range(1, p):
        t = Fraction(i, p)
        pt = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
        full.append(pt)
        if math.gcd(i, p) == 1:
            coprime.append(pt)
    return full, coprime


@dataclass(frozen=True)
class TotientSums:
    n: int
    s1: int  # sum of phi(i)
    s2: int  # sum of phi(i)^2
    s3: Fraction  # sum of phi(i)^2 / i^3, exact


def partial_sums(n: int):
    """Yield (i, phi(i), s1, s2, s3) for i = 1..n, where s1, s2 and s3 are the
    running sums of phi, phi^2 and phi^2 / i^3 (s3 an exact Fraction).

    Every row reduces s3, a Fraction whose denominator grows like
    lcm(1..i)^3; callers that need only the last row or the inequality
    report use `totient_sums` and `verify_totient_inequalities` instead."""
    table = totient_sieve(n)
    s1 = s2 = 0
    s3 = Fraction(0)
    for i in range(1, n + 1):
        f = int(table.phi[i])
        s1 += f
        s2 += f * f
        s3 += Fraction(f * f, i * i * i)
        yield i, f, s1, s2, s3


def _s3_split(phi, a: int, b: int):
    """(num, m) with sum_{a <= i < b} phi(i)^2 / i^3 = num / m^3, m = lcm(a..b-1)."""
    if b - a == 1:
        f = int(phi[a])
        return f * f, a
    mid = (a + b) // 2
    n1, m1 = _s3_split(phi, a, mid)
    n2, m2 = _s3_split(phi, mid, b)
    m = math.lcm(m1, m2)
    return n1 * (m // m1) ** 3 + n2 * (m // m2) ** 3, m


def _s3_exact(n: int, phi) -> Fraction:
    """s3(n) by binary splitting over a common denominator, reduced once."""
    num, m = _s3_split(phi, 1, n + 1)
    return Fraction(num, m ** 3)


def totient_sums(n: int, table: TotientTable | None = None) -> TotientSums:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if table is None or table.n_max < n:
        table = totient_sieve(n)
    phi = table.phi
    s1 = s2 = 0
    for i in range(1, n + 1):
        f = int(phi[i])
        s1 += f
        s2 += f * f
    return TotientSums(n, s1, s2, _s3_exact(n, phi))


# Fraction bits of the integer bounds lo <= s3 * 2^_S3_BITS <= hi kept by
# verify_totient_inequalities; a step widens hi - lo by at most 1.
_S3_BITS = 128


@dataclass(frozen=True)
class TotientReport:
    n_max: int
    square_sum_strictly_below_cube: bool  # s2(n) < n^3 for every n >= 2 (equality at n = 1)
    eleventh_holds_from: int  # least n0 with 11*s2(n) >= n^3 for all n in [n0, n_max]
    log_window_start: int
    log_ratio_min: float  # min of s3(k)/ln(k) over the window
    log_c_required: float
    log_bound_ok: bool  # s3(k) >= log_c_required * ln(k) across the window
    ratios: tuple = field(repr=False, default=())  # (n, s2/n^3 as float) samples
    # window n at which the integer bounds on s3 did not decide and _s3_exact ran;
    # it says how the report was computed, not what it says, so == ignores it
    exact_fallbacks: int = field(repr=False, default=0, compare=False)


def verify_totient_inequalities(n_max: int, log_c: float = 0.05, window_start: int = 27) -> TotientReport:
    """Scan the partial sums up to n_max and report where the bounds hold.

    Checked exactly: s2(n) < n^3 for all n >= 2 (at n = 1 the two sides are
    both 1, since phi(1) = 1, so strictness starts at 2); the empirical
    threshold from which 11*s2(n) >= n^3 stays true; and the log growth of
    the weighted sum, s3(k) >= log_c * ln(k) on [window_start, n_max],
    compared exactly against the binary float log_c * ln(k).

    s3 is never reduced along the scan. Integer bounds lo <= s3 * 2^K <= hi
    (K = _S3_BITS) grow by floor and ceil of phi(n)^2 * 2^K / n^3. int / int
    division rounds correctly and rounding is monotone, so when lo / 2^K and
    hi / 2^K round to the same float, that float is float(s3); and s3 is
    compared with the float c = a / b by the integer products hi*b, lo*b and
    a * 2^K. At any n where either decision is left open, the exact s3 comes
    from _s3_exact and `exact_fallbacks` counts it. No tolerance enters.
    """
    if window_start < 2:
        raise ValidationError(f"window_start must be >= 2 (ln 1 = 0), got {window_start}")
    if n_max < window_start:
        raise ValidationError(f"n_max must be >= {window_start}, got {n_max}")
    if not math.isfinite(log_c * math.log(n_max)):
        # |log_c| * ln(k) rounds monotonically in k, so this covers the window
        raise ValidationError(f"log_c * ln(n_max) must be finite, got log_c = {log_c!r}")
    phi = totient_sieve(n_max).phi
    bits = _S3_BITS
    scale = 1 << bits
    lo = hi = s2 = 0
    chomp_ok = True
    last_violation = 0
    log_min = None
    log_ok = True
    fallbacks = 0
    samples = []
    sample_every = max(1, n_max // 16)
    for n in range(1, n_max + 1):
        f2 = int(phi[n]) ** 2
        s2 += f2
        cube = n ** 3
        q, r = divmod(f2 << bits, cube)
        lo += q
        hi += q + (r != 0)
        if n >= 2 and s2 >= cube:
            chomp_ok = False
        if 11 * s2 < cube:
            last_violation = n
        if n >= window_start:
            ln_n = math.log(n)
            a, b = (log_c * ln_n).as_integer_ratio()
            s3 = None  # exact s3(n), computed only where the bounds leave a decision open
            s3_float = lo / scale
            if s3_float != hi / scale:
                s3 = _s3_exact(n, phi)
                s3_float = float(s3)
            threshold = a * scale
            if hi * b < threshold:
                below = True
            elif lo * b >= threshold:
                below = False
            else:
                if s3 is None:
                    s3 = _s3_exact(n, phi)
                below = s3 * b < a
            fallbacks += s3 is not None
            ratio = s3_float / ln_n
            if log_min is None or ratio < log_min:
                log_min = ratio
            if below:
                log_ok = False
        if n % sample_every == 0 or n == n_max:
            samples.append((n, s2 / cube))
    return TotientReport(
        n_max=n_max,
        square_sum_strictly_below_cube=chomp_ok,
        eleventh_holds_from=last_violation + 1,
        log_window_start=window_start,
        log_ratio_min=float(log_min),
        log_c_required=log_c,
        log_bound_ok=log_ok,
        ratios=tuple(samples),
        exact_fallbacks=fallbacks,
    )
