"""Property tests of factorization, of the sign sieve and its parts, and of the
half-period Pell expansion, against direct definitions and sympy as an
independent oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from liouwit import cf_sqrt, factorize, fundamental_solution, liouville, sign_change_report
from liouwit import witness
from liouwit.arith import sqrt_mod
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


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=-2000, max_value=2000).filter(lambda d: d != 0),
    st.integers(min_value=0, max_value=300),
)
def test_sign_change_report_matches_direct_loop(d, bound):
    assert report_counts(d, bound) == direct_counts(d, bound)


def test_sign_change_report_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(witness, "_SIEVE_BLOCK", 7)
    # bounds on both sides of multiples of the block length; d = -49 puts
    # the first defined value (n = 8) in the second block
    for d in (6, -7, 1, -49, -50, 31):
        for bound in (0, 6, 7, 8, 13, 14, 15, 60):
            assert report_counts(d, bound) == direct_counts(d, bound), (d, bound)


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
