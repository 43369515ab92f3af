"""Unit tests for factorization, the Liouville function, and square-free cores."""

import tracemalloc

import pytest

from liouwit import (
    FactorBudgetExceededError,
    Factorization,
    InvalidInputError,
    factorize,
    is_prime,
    liouville,
    merge_factorizations,
    squarefree_core,
)
from liouwit import factor


def test_factorize_pinned():
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())
    assert factorize(12) == Factorization(1, ((2, 2), (3, 1)))
    assert factorize(-12) == Factorization(-1, ((2, 2), (3, 1)))
    assert factorize(97) == Factorization(1, ((97, 1),))
    assert factorize(2**10) == Factorization(1, ((2, 10),))
    with pytest.raises(InvalidInputError):
        factorize(0)
    # the budget is checked before trial division could answer without it
    with pytest.raises(InvalidInputError, match="budget must be non-negative"):
        factorize(12, budget=-1)
    assert factorize(12, budget=0) == Factorization(1, ((2, 2), (3, 1)))


def test_factorize_sieves_trial_primes_only_as_far_as_needed(monkeypatch):
    monkeypatch.setattr(factor, "_trial_primes", factor._TrialPrimes())
    assert factorize(12) == Factorization(1, ((2, 2), (3, 1)))
    assert list(factor._trial_primes.primes) == [2, 3]
    assert factorize(1_000_003 * 999_983).factors == ((999_983, 1), (1_000_003, 1))
    assert len(factor._trial_primes.primes) == 78_498


def test_trial_primes_grow_in_bounded_memory(monkeypatch):
    # the 78,498 primes below 10^6 as a list of ints held about 3 MB and
    # peaked near 4 MB while they were sieved in one call; a typed array
    # grown one window at a time stays well under 1 MB
    monkeypatch.setattr(factor, "_trial_primes", factor._TrialPrimes())
    tracemalloc.start()
    try:
        assert factorize(1_000_003 * 999_983).factors == ((999_983, 1), (1_000_003, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(factor._trial_primes.primes) == 78_498
    assert peak < 1_000_000


def test_factorize_value_roundtrip():
    for n in list(range(1, 500)) + [10**6 + 1, 10**9 + 7, 2**40 + 1]:
        fact = factorize(n)
        assert fact.value == n
        assert factorize(-n).value == -n


def test_factorize_semiprime_beyond_trial_division():
    p, q = 1000003, 1000033
    fact = factorize(p * q)
    assert fact.factors == ((p, 1), (q, 1))


def test_factorize_tests_each_residual_for_primality_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(factor, "is_prime", counting_is_prime)
    p, q = 1000003, 1000033
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    # only the composite above 10^12 is tested; rho's factors lie below it
    # and have no factor below 10^6, so each is prime without a test
    assert calls == [p * q]
    calls.clear()
    assert factorize(p).factors == ((p, 1),)
    assert calls == []


def test_factorize_perfect_power_shortcut():
    p = 1000003
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(p**4).factors == ((p, 4),)


def test_factor_budget_exhaustion():
    # two balanced 19-digit primes: rho cannot split them in 1000 iterations
    p, q = 2305843009213693951, 4611686018427387847
    with pytest.raises(FactorBudgetExceededError):
        factorize(p * q, budget=1000)


@pytest.mark.parametrize(
    "n,budget,found,left",
    [
        (44417448594559457729469609816297939253, 1_000_000, 15706387, 994_881),
        (2827986385064843858073127181719, 1_000_000, 152260656467, 686_273),
        (141809011069391361641702478022583, 1_000_000, 22414527371, 966_721),
        (54943725566391054184734686073721296383, 200_000, None, -63),
    ],
)
def test_rho_factor_and_spend_pinned(n, budget, found, left):
    # the cofactors the witness sweep hands to rho; the sign of x - y in the
    # product q leaves every gcd, returned factor and budget spend as it was
    spent = factor._Budget(budget)
    if found is None:
        with pytest.raises(FactorBudgetExceededError):
            factor._rho_brent(n, spent)
    else:
        assert factor._rho_brent(n, spent) == found
    assert spent.remaining == left


def test_liouville_pinned():
    values = [liouville(n) for n in range(1, 17)]
    assert values == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1, -1, -1, -1, 1, 1, 1]
    assert liouville(2 * 3 * 5 * 7) == 1
    with pytest.raises(InvalidInputError):
        liouville(0)


def test_big_omega():
    assert factorize(1).big_omega == 0
    assert factorize(360).big_omega == 6  # 2^3 * 3^2 * 5
    assert factorize(-360).big_omega == 6


def test_squarefree_core_pinned():
    assert squarefree_core(12) == (3, 2)
    assert squarefree_core(-12) == (-3, 2)
    assert squarefree_core(1) == (1, 1)
    assert squarefree_core(-1) == (-1, 1)
    assert squarefree_core(49) == (1, 7)
    assert squarefree_core(360) == (10, 6)
    assert squarefree_core(54) == (6, 3)
    with pytest.raises(InvalidInputError):
        squarefree_core(0)


def test_squarefree_core_identity():
    for n in range(1, 300):
        core, scale = squarefree_core(n)
        assert core * scale * scale == n
        assert all(e == 1 for _, e in factorize(core).factors)


def test_merge_factorizations():
    assert merge_factorizations([]) == Factorization(1, ())
    parts = [factorize(12), factorize(-18), factorize(5)]
    merged = merge_factorizations(parts)
    assert merged.value == 12 * -18 * 5
    assert merged == factorize(12 * -18 * 5)
