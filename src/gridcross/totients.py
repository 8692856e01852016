"""Euler totient tables, refinement levels of rational points, and the
exact partial sums used by the crossing lower bounds.

A rational point "lives at level p" when p is the least common multiple of
the reduced denominators of its coordinates; level-p points of distinct p
never coincide. On a primitive segment, the points at parameters i/p with
gcd(i, p) = 1 are exactly the level-p points the segment carries, and there
are phi(p) of them for p >= 2 (none for p = 1, since i ranges over 1..p-1).
`pgrid_numerators` gives them as integer tuples n, the point being n/p,
the rows that `bounds` builds as arrays and buckets; `edge_pgrid_points`
gives them as Fractions.

`totient_sieve` crosses out, on a bool array, the multiples of the primes
p <= sqrt(n_max) only, which leaves every prime up to n_max, and applies
phi -= phi // p once per such p. An i with a prime factor P > sqrt(n_max) is
P * k with k < P, so phi(i) = (P - 1) phi(k): one vectorised step per k sets
all of them. The scans read phi as Python ints through
`TotientTable.view`, a memoryview of the int64 array: no copy, no numpy
scalar per entry, and no list of n ints.

The weighted sum s3(n) = sum phi(i)^2 / i^3 is a Fraction whose reduced
denominator grows like lcm(1..n)^3 (about 43k bits at n = 10^4), so reducing
it at every step dominates a scan. `partial_sums` still does, because it
yields every row; `totient_sums` sums by binary splitting over a common
denominator and reduces once (`_s3_exact`: leaves of _S3_LEAF terms, one gcd
per merge, the terms in a stable sort by their prime factor above sqrt(n));
`verify_totient_inequalities` keeps integer bounds on s3 * 2^_S3_BITS,
compares them with the float threshold times 2^_S3_BITS (Python compares an
int with a float exactly), and calls `_s3_exact` only where those bounds
leave a decision open. Each decision is settled by exact comparisons, so the
three agree exactly.

numpy is imported by the sieve on its first call, not with the module, so
essential_level, pgrid_numerators and edge_pgrid_points never load it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError, as_integer, is_integer
from .geom import check_segment, gcd_reduce


@dataclass(frozen=True, eq=False)
class TotientTable:
    n_max: int
    phi: np.ndarray  # int64, phi[i] for 0 <= i <= n_max; phi[0] = 0

    @property
    def view(self) -> memoryview:
        """phi as Python ints, without a copy: a memoryview of the array."""
        return memoryview(self.phi)

    def __getitem__(self, i: int) -> int:
        i = as_integer(i, "phi index")
        if not 0 <= i <= self.n_max:
            raise IndexError(f"phi index {i!r} outside 0..{self.n_max}")
        return self.view[i]


def _primes(n: int):
    """(small, large): the primes p <= isqrt(n) as a list, and the primes
    isqrt(n) < P <= n ascending, as an int64 array."""
    import numpy as np
    root = math.isqrt(n)
    composite = np.zeros(n + 1, dtype=bool)
    small = []
    for p in range(2, root + 1):
        if not composite[p]:
            composite[p * p::p] = True
            small.append(p)
    return small, np.flatnonzero(~composite[root + 1:]) + (root + 1)


def _large_prime_multiples(n: int, large):
    """(k, ps) for k = 1 .. n // (isqrt(n) + 1), ps the primes of `large`
    (those above isqrt(n)) with ps * k <= n. Each i <= n with a prime factor
    P above isqrt(n) is P * k for exactly one such pair, and k < P."""
    for k in range(1, n // (math.isqrt(n) + 1) + 1):
        yield k, large[:large.searchsorted(n // k, "right")]


def totient_sieve(n_max: int) -> TotientTable:
    """Exact phi(0..n_max), phi(0) = 0, sieving by the primes up to sqrt(n_max)."""
    n_max = as_integer(n_max, "n_max")
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    import numpy as np
    small, large = _primes(n_max)
    phi = np.arange(n_max + 1, dtype=np.int64)
    phi[0] = 0
    for p in small:
        phi[p::p] -= phi[p::p] // p
    for k, ps in _large_prime_multiples(n_max, large):
        phi[ps * k] = (ps - 1) * phi[k]  # k < P, so phi(P * k) = (P - 1) phi(k)
    return TotientTable(n_max, phi)


def essential_level(point) -> int:
    """The unique refinement level of a rational point: lcm of reduced denominators."""
    level = 1
    for x in point:
        if isinstance(x, Fraction):
            level = math.lcm(level, x.denominator)
        elif not is_integer(x):
            raise ValidationError(f"coordinates must be integers or Fractions, got {x!r}")
    return level


def pgrid_numerators(seg, p: int):
    """The points n/p of segment a->b at parameters i/p, gcd(i, p) = 1, in increasing
    i, as integer tuples n_k = p * a_k + i * (b_k - a_k); primitivity is not checked.
    Coordinates are read as Python ints, so numpy integers give exact numerators."""
    p = as_integer(p, "p")
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    check_segment(seg)
    a, b = ([operator.index(x) for x in end] for end in seg)
    line = [(p * ak, bk - ak) for ak, bk in zip(a, b)]  # (start, step) per coordinate
    return [tuple(s + i * d for s, d in line) for i in range(1, p) if math.gcd(i, p) == 1]


def edge_pgrid_points(seg, p: int):
    """The phi(p) level-p points of a primitive segment (none for p = 1): the
    points n/p of `pgrid_numerators` as Fractions, of essential_level p."""
    p = as_integer(p, "p")
    numerators = pgrid_numerators(seg, p)
    _, g = gcd_reduce(seg)
    if g != 1:
        raise ValidationError(f"segment {seg[0]}->{seg[1]} is not primitive (gcd {g})")
    return [tuple(Fraction(x, p) for x in n) for n in numerators]


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
    phi = totient_sieve(n).view
    s1 = s2 = 0
    s3 = Fraction(0)
    for i, f in enumerate(phi[1:], 1):
        s1 += f
        s2 += f * f
        s3 += Fraction(f * f, i * i * i)
        yield i, f, s1, s2, s3


# Terms a leaf of _s3_split sums against one common denominator.
_S3_LEAF = 16


def _s3_split(phi, order, a: int, b: int):
    """(num, m) with the sum of phi[i]^2 / i^3 over i in order[a:b] equal to
    num / m^3, m = lcm(order[a:b]).

    `phi` is the memoryview of a TotientTable. A leaf sums its terms against
    its own lcm; a merge scales each half by its cofactor, from one gcd."""
    if b - a <= _S3_LEAF:
        terms = order[a:b]
        m = math.lcm(*terms)
        num = 0
        for i in terms:
            k = m // i
            fk = phi[i] * k
            num += fk * fk * k
        return num, m
    mid = (a + b) // 2
    n1, m1 = _s3_split(phi, order, a, mid)
    n2, m2 = _s3_split(phi, order, mid, b)
    g = math.gcd(m1, m2)
    c1, c2 = m2 // g, m1 // g  # m = m1 * c1 = m2 * c2
    return n1 * c1 ** 3 + n2 * c2 ** 3, m1 * c1


def _s3_order(n: int):
    """1..n stably sorted by the prime factor above isqrt(n), 0 for the i
    without one: those i first and ascending, then P, 2P, ..., (n // P) P
    for each larger prime P ascending."""
    import numpy as np
    _, large = _primes(n)
    key = np.zeros(n + 1, dtype=np.int64)
    for k, ps in _large_prime_multiples(n, large):
        key[ps * k] = ps
    return np.argsort(key, kind="stable")[1:]  # i = 0 has key 0, so it sorts first


def _s3_exact(n: int, phi) -> Fraction:
    """s3(n) by binary splitting over a common denominator, reduced once.

    The terms go in `_s3_order`, a stable sort by their prime factor above
    isqrt(n): a node's lcm is then about the product of its own large primes
    times a small smooth part, and the lcms of one tree level add up to about
    lcm(1..n). In plain order every range [a, b) with a <= b/2 has
    lcm(1..b), and a level of short ranges, whose lcm is near their product,
    carries about n log2(n) bits."""
    order = _s3_order(n)
    num, m = _s3_split(phi, memoryview(order), 0, n)
    return Fraction(num, m ** 3)


def totient_sums(n: int, table: TotientTable | None = None) -> TotientSums:
    n = as_integer(n, "n")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if table is None or table.n_max < n:
        table = totient_sieve(n)
    phi = table.view
    head = phi[1:n + 1]
    return TotientSums(n, sum(head), sum(map(operator.mul, head, head)), _s3_exact(n, phi))


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
    compared exactly against the binary float c = log_c * ln(k).

    s3 is never reduced along the scan. With K = _S3_BITS, lo = sum of
    floor(phi(i)^2 * 2^K / i^3) and hi = lo + n bound s3 * 2^K, since each
    floor drops less than 1. int-to-float conversion rounds correctly and
    monotonically, and scaling by 2^-K is exact, so when lo and hi round to
    the same float, that float times 2^-K is float(s3). Python compares an
    int with a float exactly, and c * 2^K is exact, or +-inf when c * 2^K
    overflows, which still orders every int correctly; so hi < c * 2^K and
    lo >= c * 2^K decide s3 < c. At any n where either decision is left
    open, the exact s3 comes from _s3_exact and `exact_fallbacks` counts it.
    No tolerance enters.
    """
    n_max = as_integer(n_max, "n_max")
    window_start = as_integer(window_start, "window_start")
    if window_start < 2:
        raise ValidationError(f"window_start must be >= 2 (ln 1 = 0), got {window_start}")
    if n_max < window_start:
        raise ValidationError(f"n_max must be >= {window_start}, got {n_max}")
    if isinstance(log_c, bool) or not isinstance(log_c, numbers.Real):
        raise ValidationError(f"log_c must be a real number, got {log_c!r}")
    if not math.isfinite(log_c * math.log(n_max)):
        # |log_c| * ln(k) rounds monotonically in k, so this covers the window
        raise ValidationError(f"log_c * ln(n_max) must be finite, got log_c = {log_c!r}")
    phi = totient_sieve(n_max).view
    bits = _S3_BITS
    scale = 2.0 ** bits
    unscale = 2.0 ** -bits
    lo = s2 = 0
    chomp_ok = True
    last_violation = 0
    log_min = math.inf
    log_ok = True
    fallbacks = 0
    samples = []
    sample_every = max(1, n_max // 16)
    for n, f in enumerate(phi[1:], 1):
        f2 = f * f
        s2 += f2
        cube = n * n * n
        lo += (f2 << bits) // cube
        if s2 >= cube and n >= 2:
            chomp_ok = False
        if 11 * s2 < cube:
            last_violation = n
        if n >= window_start:
            hi = lo + n
            ln_n = math.log(n)
            c = log_c * ln_n
            threshold = c * scale
            if hi < threshold:
                below = True
            elif lo >= threshold:
                below = False
            else:
                below = None
            s3_float = float(lo)
            if below is None or s3_float != float(hi):
                s3 = _s3_exact(n, phi)
                fallbacks += 1
                s3_float = float(s3)
                below = s3 < c  # Fraction against float: exact
            else:
                s3_float *= unscale
            ratio = s3_float / ln_n
            if ratio < log_min:
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
        log_ratio_min=log_min,
        log_c_required=log_c,
        log_bound_ok=log_ok,
        ratios=tuple(samples),
        exact_fallbacks=fallbacks,
    )
