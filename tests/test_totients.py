import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from gridcross import totients
from gridcross.errors import ValidationError
from gridcross.totients import (
    TotientReport,
    TotientSums,
    TotientTable,
    edge_pgrid_points,
    essential_level,
    partial_sums,
    pgrid_numerators,
    totient_sieve,
    totient_sums,
    verify_totient_inequalities,
)


def _phi_by_counting(n):
    # independent oracle: count coprime residues directly
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_sieve_known_values():
    t = totient_sieve(12)
    assert [t[i] for i in range(1, 7)] == [1, 1, 2, 2, 4, 2]
    assert t[7] == 6
    assert t[12] == 4


def test_sieve_matches_counting_oracle():
    t = totient_sieve(200)
    for n in range(1, 201):
        assert t[n] == _phi_by_counting(n)


def test_sieve_multiplicative_spot_checks():
    t = totient_sieve(1000)
    rng = random.Random(23)
    for _ in range(200):
        a = rng.randint(1, 31)
        b = rng.randint(1, 31)
        if math.gcd(a, b) == 1:
            assert t[a * b] == t[a] * t[b]


def test_essential_level_examples():
    assert essential_level((Fraction(3, 2), Fraction(5, 3), 1)) == 6
    assert essential_level((4, 7, 9)) == 1
    assert essential_level((Fraction(1, 2), Fraction(1, 2))) == 2


def test_essential_level_matches_minimal_denominator_oracle():
    rng = random.Random(29)
    for _ in range(200):
        pt = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 4)))
        level = essential_level(pt)
        # oracle: smallest q such that q*x is an integer for every coordinate
        q = 1
        while not all((q * x).denominator == 1 for x in pt):
            q += 1
        assert level == q


def test_edge_pgrid_points_example():
    q = edge_pgrid_points(((1, 1, 1), (2, 3, 4)), 6)
    assert q == [
        (Fraction(7, 6), Fraction(4, 3), Fraction(3, 2)),
        (Fraction(11, 6), Fraction(8, 3), Fraction(7, 2)),
    ]
    assert len(q) == 2  # phi(6)


def test_edge_pgrid_points_small_p():
    assert edge_pgrid_points(((0, 0), (1, 2)), 1) == []
    assert edge_pgrid_points(((0, 0), (1, 2)), 2) == [(Fraction(1, 2), 1)]


def test_edge_pgrid_points_rejects_non_primitive():
    with pytest.raises(ValidationError, match="not primitive"):
        edge_pgrid_points(((0, 0), (2, 4)), 3)
    # the numerators do not need primitivity: the midpoint (1, 2) is n/2
    assert pgrid_numerators(((0, 0), (2, 4)), 2) == [(2, 4)]
    assert pgrid_numerators(((0, 0), (2, 4)), 3) == [(2, 4), (4, 8)]


def test_q_size_is_phi_and_levels_exact():
    rng = random.Random(31)
    t = totient_sieve(50)
    checked = 0
    while checked < 60:
        dim = rng.choice([2, 3, 4])
        a = tuple(rng.randint(-5, 5) for _ in range(dim))
        b = tuple(rng.randint(-5, 5) for _ in range(dim))
        if a == b:
            continue
        diffs = [y - x for x, y in zip(a, b)]
        g = 0
        for x in diffs:
            g = math.gcd(g, abs(x))
        if g != 1:
            continue
        checked += 1
        p = rng.randint(2, 50)
        q = edge_pgrid_points((a, b), p)
        assert len(q) == t[p]
        for pt in q:
            assert essential_level(pt) == p


def test_pgrid_points_match_the_parameter_form():
    # oracle: the point a + (i/p)(b - a) for each i coprime to p, one
    # Fraction operation at a time
    rng = random.Random(37)
    bound = 10 ** 6
    for _ in range(300):
        dim = rng.randint(1, 5)
        a = tuple(rng.randint(-bound, bound) for _ in range(dim))
        b = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if a == b:
            continue
        g = math.gcd(*(y - x for x, y in zip(a, b)))
        b = tuple(x + (y - x) // g for x, y in zip(a, b))  # primitive, between a and b
        p = rng.randint(1, 40)
        expect = [tuple(x + Fraction(i, p) * (y - x) for x, y in zip(a, b))
                  for i in range(1, p) if math.gcd(i, p) == 1]
        q = edge_pgrid_points((a, b), p)
        assert q == expect
        assert all(type(x) is Fraction for pt in q for x in pt)
        n = pgrid_numerators((a, b), p)
        assert [tuple(Fraction(x, p) for x in pt) for pt in n] == expect
        assert all(type(x) is int for pt in n for x in pt)


def test_pgrid_points_exact_on_numpy_integers():
    # p * a_k does not fit an int64 here: the coordinates must be read as ints
    seg = ((2 ** 62, 5), (2 ** 62 + 1, 7))
    as_int64 = tuple(tuple(np.int64(x) for x in end) for end in seg)
    with np.errstate(all="raise"):
        assert edge_pgrid_points(as_int64, 3) == edge_pgrid_points(seg, 3)
        numerators = pgrid_numerators(as_int64, 3)
    assert edge_pgrid_points(seg, 3) == [
        (Fraction(3 * 2 ** 62 + 1, 3), Fraction(17, 3)),
        (Fraction(3 * 2 ** 62 + 2, 3), Fraction(19, 3)),
    ]
    assert numerators == pgrid_numerators(seg, 3) == [(3 * 2 ** 62 + 1, 17), (3 * 2 ** 62 + 2, 19)]
    assert all(type(x) is int for pt in numerators for x in pt)


def test_totient_sums_examples():
    s = totient_sums(1)
    assert (s.s1, s.s2, s.s3) == (1, 1, Fraction(1))
    s = totient_sums(3)
    assert (s.s1, s.s2, s.s3) == (4, 6, Fraction(275, 216))
    assert totient_sums(10).s1 == 32


def _largest_prime_factors(n):
    # lpf[i] for 0 <= i <= n; lpf[1] = 1. Each prime p writes its multiples,
    # and a larger prime writes later.
    lpf = list(range(n + 1))
    for p in range(2, n + 1):
        if lpf[p] == p:
            for i in range(2 * p, n + 1, p):
                lpf[i] = p
    return lpf


def test_s3_order_is_a_stable_sort_by_the_large_prime_factor():
    # every s3 value is the same in any term order, so only this test sees
    # the grouping that the binary splitting's speed depends on. 1..400
    # crosses every square up to 20^2, where the primes above isqrt(n) change.
    lpf = _largest_prime_factors(4097)
    for n in [*range(1, 401), 4097]:
        root = math.isqrt(n)
        want = sorted(range(1, n + 1), key=lambda i: lpf[i] if lpf[i] > root else 0)
        assert totients._s3_order(n).tolist() == want, n


def test_sum_bounds():
    table = totient_sieve(400)
    s1 = 0
    s2 = 0
    for n in range(1, 401):
        f = table[n]
        s1 += f
        s2 += f * f
        assert s1 <= n * (n + 1) // 2
        if n >= 2:
            assert s2 < n ** 3


def test_verify_totient_inequalities_small():
    rep = verify_totient_inequalities(100)
    assert rep.square_sum_strictly_below_cube
    assert rep.eleventh_holds_from == 1
    assert rep.log_bound_ok
    assert rep.log_ratio_min > 0.05


def test_verify_requires_window():
    with pytest.raises(ValidationError):
        verify_totient_inequalities(10)


def test_sieve_matches_sympy_totient():
    sympy = pytest.importorskip("sympy")
    t = totient_sieve(2000)
    assert [t[n] for n in range(1, 2001)] == [int(sympy.totient(n)) for n in range(1, 2001)]


@lru_cache(maxsize=None)
def _rows(n):
    # the reduced per-row scan, computed once per length
    return tuple(partial_sums(n))


def _oracle_report(n_max, log_c=0.05, window_start=27):
    """The inequality report from the reduced partial_sums rows: float(s3) and
    an exact Fraction comparison at every n of the window."""
    rows = _rows(400) if n_max <= 400 else _rows(n_max)
    chomp_ok = True
    last_violation = 0
    log_min = None
    log_ok = True
    samples = []
    sample_every = max(1, n_max // 16)
    for n, _, _, s2, s3 in rows[:n_max]:
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
    return TotientReport(n_max, chomp_ok, last_violation + 1, window_start, log_min,
                         log_c, log_ok, tuple(samples))


def test_verify_matches_partial_sums_oracle():
    for n_max in [*range(27, 401), 2048]:
        rep = verify_totient_inequalities(n_max)
        assert rep == _oracle_report(n_max), n_max
        assert rep.exact_fallbacks == 0


def test_verify_log_bound_at_the_minimum_ratio_matches_oracle():
    seen = set()
    for n_max in (27, 100, 400, 2048):
        low = _oracle_report(n_max).log_ratio_min
        for log_c in (math.nextafter(low, 0), low, math.nextafter(low, 1)):
            rep = verify_totient_inequalities(n_max, log_c=log_c)
            oracle = _oracle_report(n_max, log_c=log_c)
            assert rep == oracle, (n_max, log_c)
            seen.add(rep.log_bound_ok)
    assert seen == {True, False}


def test_verify_exact_fallback_matches_oracle(monkeypatch):
    monkeypatch.setattr(totients, "_S3_BITS", 20)
    for n_max, window_start in ((27, 27), (400, 27), (400, 2)):
        low = _oracle_report(n_max, window_start=window_start).log_ratio_min
        for log_c in (0.05, low, math.nextafter(low, 1)):
            rep = verify_totient_inequalities(n_max, log_c=log_c, window_start=window_start)
            assert rep == _oracle_report(n_max, log_c=log_c, window_start=window_start)
            assert rep.exact_fallbacks > 0


def test_totient_sums_matches_last_partial_sums_row():
    table = totient_sieve(4097)
    for n, _, s1, s2, s3 in _rows(300):
        assert totient_sums(n, table) == TotientSums(n, s1, s2, s3)
    n, _, s1, s2, s3 = _rows(4097)[-1]
    assert totient_sums(4097) == TotientSums(n, s1, s2, s3)


def test_totient_sums_beyond_int64_squares():
    # synthetic values with f^2 > 2^63: an int64 vectorised s2 would wrap
    values = [0] + [3_100_000_000 + 7 * i for i in range(1, 41)]
    table = TotientTable(40, np.array(values, dtype=np.int64))
    assert values[1] ** 2 > 2 ** 63
    s = totient_sums(40, table)
    assert s.s1 == sum(values)
    assert s.s2 == sum(f * f for f in values)
    assert s.s3 == sum(Fraction(values[i] ** 2, i ** 3) for i in range(1, 41))


@pytest.mark.parametrize("window_start", [0, 1, -3])
def test_verify_rejects_window_without_positive_log(window_start):
    with pytest.raises(ValidationError, match="window_start"):
        verify_totient_inequalities(50, window_start=window_start)


@pytest.mark.parametrize("log_c", [math.nan, math.inf, -math.inf, 1e308])
def test_verify_rejects_non_finite_log_bound(log_c):
    with pytest.raises(ValidationError, match="log_c"):
        verify_totient_inequalities(50, log_c=log_c)


@pytest.mark.parametrize("bad", [True, 2.5, 27.5, 30.0, "30", None])
def test_totient_arguments_must_be_integers(bad):
    for call in (lambda: totient_sieve(bad),
                 lambda: totient_sums(bad),
                 lambda: list(partial_sums(bad)),
                 lambda: verify_totient_inequalities(bad),
                 lambda: verify_totient_inequalities(30, window_start=bad),
                 lambda: edge_pgrid_points(((0, 0), (1, 2)), bad),
                 lambda: pgrid_numerators(((0, 0), (1, 2)), bad)):
        with pytest.raises(ValidationError, match="must be an integer"):
            call()


@pytest.mark.parametrize("seg, p, message", [
    (((0, 0), (1, 2)), 0, "p must be >= 1"),
    (((0, 0), (1, 2)), -3, "p must be >= 1"),
    (((1, 2), (1, 2)), 3, "degenerate segment"),
    (((0, 0), (1, 2, 3)), 3, "differ in dimension"),
    (((), ()), 3, "zero-dimensional"),
], ids=["p-0", "p-negative", "degenerate", "mixed-dimension", "zero-dimension"])
def test_pgrid_builders_refuse_bad_levels_and_segments(seg, p, message):
    for build in (pgrid_numerators, edge_pgrid_points):
        with pytest.raises(ValidationError, match=message):
            build(seg, p)


@pytest.mark.parametrize("log_c", [True, False, "0.05", None, Decimal("0.05"), 1j])
def test_verify_refuses_log_c_that_is_not_a_real_number(log_c):
    with pytest.raises(ValidationError, match="log_c must be a real number"):
        verify_totient_inequalities(30, log_c=log_c)


def test_verify_accepts_real_log_c_types():
    rep = verify_totient_inequalities(30, log_c=0.5)
    assert verify_totient_inequalities(30, log_c=np.float64(0.5)) == rep
    assert verify_totient_inequalities(30, log_c=Fraction(1, 2)) == rep


def test_totient_arguments_accept_integer_types():
    table = totient_sieve(np.int64(30))
    assert type(table.n_max) is int and table.n_max == 30
    assert totient_sums(np.int32(30)) == totient_sums(30)
    rep = verify_totient_inequalities(np.int64(30), window_start=np.int16(27))
    assert rep == verify_totient_inequalities(30)
    assert type(rep.n_max) is int and type(rep.log_window_start) is int


@pytest.mark.parametrize("point", [(0.5, 1), (Fraction(1, 2), 1.0), (True, 2), ("1", 2),
                                   (Decimal("0.5"),)])
def test_essential_level_refuses_inexact_coordinates(point):
    with pytest.raises(ValidationError, match="coordinates"):
        essential_level(point)


def test_essential_level_accepts_integer_types():
    assert essential_level((np.int64(3), Fraction(5, 4), 2)) == 4


def test_table_refuses_indices_outside_its_range():
    t = totient_sieve(10)
    assert (t[0], t[1], t[10], t[np.int64(10)]) == (0, 1, 4, 4)
    for i in (-1, -11, 11):
        with pytest.raises(IndexError):
            t[i]


@pytest.mark.parametrize("i", [True, 2.0, "2"])
def test_table_refuses_non_integer_indices(i):
    t = totient_sieve(10)
    with pytest.raises(ValidationError, match="phi index"):
        t[i]


def test_sieve_of_every_length_matches_sympy_totient():
    # each length has its own sqrt(n_max) cut between the prime sieve and the
    # large prime factors
    sympy = pytest.importorskip("sympy")
    want = [0] + [int(sympy.totient(k)) for k in range(1, 131)]
    for n in range(1, 131):
        assert totient_sieve(n).phi.tolist() == want[:n + 1], n


@pytest.mark.parametrize("n_max", [27, 400])
@pytest.mark.parametrize("log_c", [1e300, -1e300, 5e-324])
def test_verify_threshold_envelope_matches_oracle(n_max, log_c):
    c = log_c * math.log(n_max)
    if abs(log_c) == 1e300:
        assert math.isinf(c * 2.0 ** totients._S3_BITS)  # the scaled threshold overflows
    else:
        assert 0 < c < 2.0 ** -1022  # subnormal
    rep = verify_totient_inequalities(n_max, log_c=log_c)
    assert rep == _oracle_report(n_max, log_c=log_c)
    assert rep.exact_fallbacks == 0


@pytest.mark.parametrize("scan", [totient_sums, verify_totient_inequalities])
def test_scan_memory_is_a_few_int64_arrays(scan):
    # the sieve and the scans hold int64 arrays and O(1) Python ints per step;
    # a list of n Python ints alone costs about 36 bytes per entry
    n = 50_000
    tracemalloc.start()
    try:
        scan(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * (n + 1)
