"""Property tests of primality, of factorization, of the sign sieve and its
parts, and of the half-period Pell expansion, against direct definitions and
sympy as an independent oracle."""

import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime
from sympy.ntheory.primetest import is_strong_lucas_prp

from liouwit import cf_sqrt, factorize, fundamental_solution, liouville, sign_change_report
from liouwit import arith, pell, witness
from liouwit.arith import PRIMALITY_DETERMINISTIC_BOUND, is_prime, sqrt_mod
from liouwit.errors import InvalidInputError
from liouwit.factor import primerange

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


SMALL_PRIMES = [p for p in range(3, 5000) if is_prime_by_trial_division(p)]
# p - 1 = q 2^s with s = 16, 23 and 30, so Tonelli-Shanks runs many rounds
HIGH_TWO_POWER = [65_537, 998_244_353, 3 * 2**30 + 1]
BIG_PRIMES = HIGH_TWO_POWER + [10**9 + 7, 2**61 - 1]
ONE_MOD_8 = [p for p in SMALL_PRIMES if p % 8 == 1] + HIGH_TWO_POWER


def check_root(x: int, p: int) -> None:
    a = x * x % p
    r = sqrt_mod(a, p)
    assert r * r % p == a
    assert 0 <= r <= p - r


@PROPERTY_SETTINGS
@given(st.sampled_from(SMALL_PRIMES + BIG_PRIMES + [2]), st.integers(min_value=0))
def test_sqrt_mod_squares_back(p, x):
    check_root(x, p)


@PROPERTY_SETTINGS
@given(st.sampled_from(ONE_MOD_8), st.integers(min_value=1))
def test_sqrt_mod_one_mod_8(p, x):
    check_root(x, p)


@PROPERTY_SETTINGS
@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1))
def test_sqrt_mod_rejects_non_residues(p, a):
    if pow(a, (p - 1) // 2, p) == p - 1:
        with pytest.raises(InvalidInputError):
            sqrt_mod(a, p)


@cache
def roots_by_squaring(p: int) -> dict[int, tuple[int, ...]]:
    """The roots of every square modulo p, found by squaring every residue."""
    return {x * x % p: tuple(sorted({x, -x % p})) for x in range(p)}


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=-1250, max_value=1250).filter(lambda d: d != 0)
    | st.integers(min_value=-(10**40), max_value=10**40).filter(lambda d: d != 0)
)
def test_sieve_roots_match_squares(d):
    # 4|d| <= sqrt(4999) uses the table of classes, any larger d the per-prime path
    got = dict(witness._sieve_roots(d, 4999))
    for p in [2] + SMALL_PRIMES:
        want = roots_by_squaring(p).get(-d % p, ())
        assert tuple(sorted(got.get(p, ()))) == want, (d, p)


# strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]


def test_strong_lucas_matches_sympy_below_2e5():
    for n in range(3, 2 * 10**5, 2):
        assert arith._strong_lucas(n) == is_strong_lucas_prp(n), n
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert arith._strong_lucas(n) and not is_prime_by_trial_division(n), n


def test_strong_lucas_stops_at_once_on_a_square(monkeypatch):
    # no D has (D / p^2) = -1, so the D search alone would run about p / 2 steps
    calls = []
    real_jacobi = arith.jacobi

    def counted(a, n):
        calls.append(a)
        assert len(calls) < 100, "D search on a square"
        return real_jacobi(a, n)

    monkeypatch.setattr(arith, "jacobi", counted)
    for p in (1093, 3511, 2**61 - 1, nextprime(2**100)):
        assert not arith._strong_lucas(p * p), p


@PROPERTY_SETTINGS
@given(st.integers(min_value=PRIMALITY_DETERMINISTIC_BOUND, max_value=2**400 - 1))
def test_is_prime_matches_sympy_above_the_miller_rabin_bound(n):
    assert is_prime(n) == isprime(n)
    p = nextprime(n)
    assert is_prime(p) and is_prime(p + 2) == isprime(p + 2)


BIG_PRIME = st.integers(min_value=2**40, max_value=2**120).map(nextprime)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(BIG_PRIME, BIG_PRIME)
def test_is_prime_rejects_products_of_big_primes(p, q):
    for n in (p * p, p * q, p * q * q):
        assert not is_prime(n) and not isprime(n), n


@PROPERTY_SETTINGS
@given(st.integers(min_value=10**6 - 3000, max_value=10**6 + 3000), st.integers(0, 3000))
def test_primerange_across_the_million_seam(lo, length):
    want = [n for n in range(lo, lo + length) if is_prime_by_trial_division(n)]
    assert primerange(lo, lo + length) == want


def test_primerange_edges():
    assert primerange(0, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primerange(10, 10) == primerange(20, 10) == []
    assert primerange(999_983, 1_000_004) == [999_983, 1_000_003]


def check_factorization(n: int) -> tuple[int, ...]:
    fact = factorize(n)
    primes = tuple(p for p, _ in fact.factors)
    assert fact.value == n
    assert primes == tuple(sorted(set(primes)))
    assert all(isprime(p) and e >= 1 for p, e in fact.factors)
    return primes


# factorize trial-divides by the primes below 10^6 and takes a survivor
# under 10^12 as prime; these ranges reach both sides of both limits
@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.integers(min_value=10**6 - 10**4, max_value=10**6 + 10**4),
        st.integers(min_value=10**11, max_value=10**13),
        st.integers(min_value=1, max_value=10**13),
    )
)
def test_factorize_multiplies_back_to_primes(n):
    check_factorization(n)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=10**6 - 3000, max_value=10**6 + 3000),
    st.integers(min_value=10**6 - 3000, max_value=10**6 + 3000),
    st.integers(min_value=1, max_value=12),
)
def test_factorize_semiprimes_near_the_trial_limit(a, b, c):
    p, q = nextprime(a), nextprime(b)
    primes = check_factorization(c * p * q)
    assert p in primes and q in primes


def direct_counts(d: int, bound: int) -> tuple[int, int, int | None]:
    """The report's numbers from lambda(n^2 + d) evaluated one n at a time."""
    defined = [n for n in range(bound + 1) if n * n + d >= 1]
    lambdas = [liouville(n * n + d) for n in defined]
    change = next((n for n, v in zip(defined, lambdas) if v != lambdas[0]), None)
    return lambdas.count(-1), lambdas.count(1), change


def report_counts(d: int, bound: int) -> tuple[int, int, int | None]:
    report = sign_change_report(d, bound)
    return report.count_minus, report.count_plus, report.first_change_n


# d = +-m^2 k has the primes of m to high powers, so the sieve walks
# progressions of prime powers whose classes are coarser than the power
SIEVE_D = st.integers(min_value=-2000, max_value=2000).filter(lambda d: d != 0) | st.builds(
    lambda m, k, sign: sign * m * m * k,
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=60),
    st.sampled_from((1, -1)),
)


@PROPERTY_SETTINGS
@given(SIEVE_D, st.integers(min_value=0, max_value=300))
def test_sign_change_report_matches_direct_loop(d, bound):
    assert report_counts(d, bound) == direct_counts(d, bound)


def test_sign_change_report_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(witness, "_SIEVE_BLOCK", 7)
    # bounds on both sides of multiples of the block length; d = -49 puts
    # the first defined value (n = 8) in the second block
    for d in (6, -7, 1, -49, -50, 31):
        for bound in (0, 6, 7, 8, 13, 14, 15, 60):
            assert report_counts(d, bound) == direct_counts(d, bound), (d, bound)
    # repeated primes: powers up to the block length are walked in every
    # block, larger ones wait in buckets, and their classes cross blocks
    for d in (48, -48, 72, -(2**20), -900, 4 * 9 * 25):
        for bound in (13, 60, 1100):
            assert report_counts(d, bound) == direct_counts(d, bound), (d, bound)


def test_sign_change_report_walks_no_block_below_the_first_defined_n(monkeypatch):
    # n^2 + d < 1 for n < isqrt(-d) + 1; with a block length of 7 several
    # blocks lie wholly below that n. Each walked block allocates its parity
    # and log bytes, so counting the allocations counts the blocks walked.
    monkeypatch.setattr(witness, "_SIEVE_BLOCK", 7)
    allocated, real = [], bytearray

    def counting(size):
        allocated.append(size)
        return real(size)

    monkeypatch.setattr(witness, "bytearray", counting, raising=False)
    for d in (-2000, -(48**2), -900, -(2**20), -(3**4 * 5**3 * 7), -2 * 3**9):
        first = math.isqrt(-d) + 1
        for bound in (first - 1, first, first + 6, first + 60, 3 * first):
            allocated.clear()
            assert report_counts(d, bound) == direct_counts(d, bound), (d, bound)
            assert len(allocated) == 2 * max(0, bound // 7 - first // 7 + 1), (d, bound)


@pytest.mark.parametrize(
    "factors, residual",
    [
        # round(4 log2 p) < 4 log2 p for each p here, and nothing is left
        # over; at a scale of 1/2 instead of 4, eleven sevens err past the margin
        ((7,) * 11, False),
        ((3,) * 9 + (5, 5, 5, 17, 29), False),
        # round(4 log2 p) > 4 log2 p for each, times a prime above the limit
        ((11, 11, 13, 31), True),
    ],
)
def test_sign_change_report_when_every_rounded_weight_errs_one_way(factors, residual):
    value = math.prod(factors)
    if residual:
        value *= nextprime(value)
    # n^2 + d = value at n = bound, the largest value, so the sieve limit
    # is isqrt(value) and the margin of the log threshold is at its least
    bound = math.isqrt(value)
    d = value - bound * bound
    assert witness._sieve_limit(d, bound) == bound
    minus_before = report_counts(d, bound - 1)[0]
    assert report_counts(d, bound)[0] - minus_before == (liouville(value) == -1)


@pytest.mark.parametrize(
    "d,bound", [(10**18 + 7, 10), (10**12, 20), (10**12, 300), (3**40, 12), (10**30 + 1, 5)]
)
def test_sign_change_report_for_d_far_above_bound_squared(d, bound):
    # the sieve limit stays near the bound, so residuals here can be composite
    assert witness._sieve_limit(d, bound) < math.isqrt(bound * bound + d)
    assert report_counts(d, bound) == direct_counts(d, bound)


def test_sign_change_report_with_a_capped_limit(monkeypatch):
    # a floor of 5 caps the limit at the bound, so the small values here
    # reach both fallbacks: residuals below (limit+1)^3 by a primality
    # test, larger ones by factoring
    monkeypatch.setattr(witness, "_SIEVE_FLOOR", 5)
    for d in (2000, -30, 10**5 + 3, 7 * 10**6):
        for bound in (0, 3, 9, 20):
            assert report_counts(d, bound) == direct_counts(d, bound), (d, bound)


def test_sign_change_report_with_a_capped_limit_across_blocks(monkeypatch):
    # in a capped block the exact product of the divided prime powers also
    # grows at bucket hits, from progressions coarser than the block
    monkeypatch.setattr(witness, "_SIEVE_FLOOR", 5)
    monkeypatch.setattr(witness, "_SIEVE_BLOCK", 7)
    for d in (2000, -30, 10**5 + 3, 7 * 10**6, 2**20 * 3, 5**9):
        for bound in (3, 9, 20, 50):
            assert report_counts(d, bound) == direct_counts(d, bound), (d, bound)


def full_period(D: int) -> tuple[int, list[int]]:
    """a0 and the cycle of sqrt(D), walked until Q returns to 1."""
    a0 = math.isqrt(D)
    cycle, m, q, a = [], 0, 1, a0
    while q != 1 or not cycle:
        m = q * a - m
        q = (D - m * m) // q
        a = (a0 + m) // q
        cycle.append(a)
    return a0, cycle


def unit_from_full_period(D: int) -> tuple[int, int]:
    """t + u sqrt(D), the convergent p_{L-1} / q_{L-1} squared when L is odd."""
    a0, cycle = full_period(D)
    p0, p1, q0, q1 = 1, a0, 0, 1
    for a in cycle[:-1]:
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    if len(cycle) % 2:
        return p1 * p1 + D * q1 * q1, 2 * p1 * q1
    return p1, q1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=10**8).filter(lambda D: math.isqrt(D) ** 2 != D))
def test_half_period_pell_matches_the_full_period(D):
    exp = cf_sqrt(D)
    *body, last = exp.cycle
    assert body == body[::-1] and last == 2 * exp.a0
    assert (exp.a0, list(exp.cycle)) == full_period(D)
    fund = fundamental_solution(D)
    assert (fund.t, fund.u) == unit_from_full_period(D)
    assert fund.unit_norm == (-1 if exp.period % 2 else 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=600))
def test_solve_generalized_solutions_substitute_back(a, b):
    # solve_generalized substitutes no solution back, since the midpoint
    # identity implies it; this keeps that substitution in the suite. Both
    # orders and all four eps are tried, as few of them are solvable.
    if math.gcd(a, b) != 1 or math.isqrt(a * b) ** 2 == a * b:
        return
    for a, b in ((a, b), (b, a)):
        for eps in (1, -1, 2, -2):
            sol = pell.solve_generalized(a, b, eps)
            if sol is not None:
                assert (sol.a, sol.b, sol.eps) == (a, b, eps)
                assert a * sol.x**2 - b * sol.y**2 == eps and sol.x > 0 and sol.y > 0
                assert abs(eps) == 1 or sol.x * sol.y % 2 == 1


def product_left_to_right(terms: list[int]) -> tuple[int, int, int, int]:
    """[[t0, 1], [1, 0]] ... [[tk, 1], [1, 0]] multiplied one matrix at a time."""
    a, b, c, d = 1, 0, 0, 1
    for t in terms:
        a, b, c, d = a * t + b, a, c * t + d, c
    return a, b, c, d


def check_convergents(terms: list[int]) -> None:
    full = product_left_to_right(terms)
    assert pell._convergent(terms) == full
    assert pell._convergent_pq(terms) == (full[0], full[2])


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=300))
def test_first_column_top_product_matches_the_full_product(terms):
    check_convergents(terms)


BLOCK = pell._CONTINUANT_BLOCK


@pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, BLOCK**2 + 1])
def test_convergents_match_the_full_product_at_block_seams(length):
    terms = [(37 * i * i + 11 * i) % 997 + 1 for i in range(length)]
    check_convergents(terms)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=BLOCK + 1, max_size=9 * BLOCK))
def test_convergents_match_the_full_product_over_several_blocks(terms):
    check_convergents(terms)
