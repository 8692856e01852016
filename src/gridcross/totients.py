"""Euler totient tables, refinement levels of rational points, and the
exact partial sums used by the crossing lower bounds.

A rational point "lives at level p" when p is the least common multiple of
the reduced denominators of its coordinates; level-p points of distinct p
never coincide. On a primitive segment, the points at parameters i/p with
gcd(i, p) = 1 are exactly the level-p points the segment carries, and there
are phi(p) of them for p >= 2 (none for p = 1, since i ranges over 1..p-1).
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


def partial_sums(n: int, table: TotientTable | None = None):
    """Yield (i, phi(i), s1, s2, s3) for i = 1..n, where s1, s2 and s3 are the
    running sums of phi, phi^2 and phi^2 / i^3 (s3 an exact Fraction)."""
    if table is None or table.n_max < n:
        table = totient_sieve(n)
    s1 = s2 = 0
    s3 = Fraction(0)
    for i in range(1, n + 1):
        f = int(table.phi[i])
        s1 += f
        s2 += f * f
        s3 += Fraction(f * f, i * i * i)
        yield i, f, s1, s2, s3


def totient_sums(n: int, table: TotientTable | None = None) -> TotientSums:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    for _, _, s1, s2, s3 in partial_sums(n, table):
        pass
    return TotientSums(n, s1, s2, s3)


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


def verify_totient_inequalities(n_max: int, log_c: float = 0.05, window_start: int = 27) -> TotientReport:
    """Scan the partial sums up to n_max and report where the bounds hold.

    Checked exactly: s2(n) < n^3 for all n >= 2 (at n = 1 the two sides are
    both 1, since phi(1) = 1, so strictness starts at 2); the empirical
    threshold from which 11*s2(n) >= n^3 stays true; and the log growth of
    the weighted sum, s3(k) >= log_c * ln(k) on [window_start, n_max],
    compared via exact rationals against the binary-float threshold.
    """
    if n_max < window_start:
        raise ValidationError(f"n_max must be >= {window_start}, got {n_max}")
    chomp_ok = True
    last_violation = 0
    log_min = None
    log_ok = True
    samples = []
    sample_every = max(1, n_max // 16)
    for n, _, _, s2, s3 in partial_sums(n_max):
        cube = n ** 3
        if n >= 2 and s2 >= cube:
            chomp_ok = False
        if 11 * s2 < cube:
            last_violation = n
        if n >= window_start:
            ln_n = math.log(n)
            ratio = float(s3) / ln_n
            if log_min is None or ratio < log_min:
                log_min = ratio
            if s3 < Fraction(log_c * ln_n):
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
    )
