"""Integer factorization, the Liouville function, square-free core extraction,
and prime ranges."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import compress

from .arith import integer_sqrt, is_prime
from .errors import FactorBudgetExceededError, InvalidInputError

_SPF_LIMIT = 10**6
_spf_table: array | None = None
_prime_list: list[int] | None = None

# Iterations of the rho inner loop before giving up; deterministic, not wall-clock.
DEFAULT_FACTOR_BUDGET = 4_000_000


def _smallest_prime_factors() -> array:
    global _spf_table
    if _spf_table is None:
        spf = array("i", range(_SPF_LIMIT + 1))
        for i in range(2, math.isqrt(_SPF_LIMIT) + 1):
            if spf[i] == i:  # i is prime
                for j in range(i * i, _SPF_LIMIT + 1, i):
                    if spf[j] == j:
                        spf[j] = i
        _spf_table = spf
    return _spf_table


def primes_below_million() -> list[int]:
    """Ascending primes below 10^6, shared by trial division and sieving."""
    global _prime_list
    if _prime_list is None:
        spf = _smallest_prime_factors()
        _prime_list = [i for i in range(2, _SPF_LIMIT + 1) if spf[i] == i]
    return _prime_list


def primerange(lo: int, hi: int) -> list[int]:
    """Ascending primes p with lo <= p < hi.

    Primes below 10^6 are sliced from the shared list; the part of the range
    above 10^6 is sieved here, with base primes up to sqrt(hi) found the same
    way.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return []
    small = primes_below_million()
    out = small[bisect_left(small, lo):bisect_left(small, hi)]
    start = max(lo, _SPF_LIMIT + 1)
    if hi > start:
        candidate = bytearray(b"\x01") * (hi - start)
        for p in primerange(2, math.isqrt(hi - 1) + 1):
            first = max(p * p, -(-start // p) * p) - start
            candidate[first::p] = bytes(len(range(first, hi - start, p)))
        out += compress(range(start, hi), candidate)
    return out


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a nonzero integer: sign * prod(p^e)."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return self.sign * math.prod(p**e for p, e in self.factors)

    @property
    def big_omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    @property
    def liouville(self) -> int:
        return -1 if self.big_omega % 2 else 1

    def merged_with(self, other: "Factorization") -> "Factorization":
        counts: dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            counts[p] = counts.get(p, 0) + e
        return Factorization(
            self.sign * other.sign, tuple(sorted(counts.items()))
        )


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int | None):
        self.remaining = limit

    def spend(self, amount: int) -> None:
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise FactorBudgetExceededError("factorization iteration budget exhausted")


def _rho_brent(n: int, budget: _Budget) -> int:
    """A nontrivial factor of odd composite n; deterministic seed sequence."""
    for c in range(1, 10**6):
        y, r, q = 2, 1, 1
        g, ys, x = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                budget.spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                budget.spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated for this c; retry with the next seed
    raise FactorBudgetExceededError("rho seed sequence exhausted")


def _factor_into(n: int, counts: dict[int, int], budget: _Budget, power: int) -> None:
    """Accumulate the factorization of n (no factors below 10^6) into counts."""
    if n == 1:
        return
    if is_prime(n):
        counts[n] = counts.get(n, 0) + power
        return
    root, exact = integer_sqrt(n)
    if exact:
        _factor_into(root, counts, budget, 2 * power)
        return
    d = _rho_brent(n, budget)
    _factor_into(d, counts, budget, power)
    _factor_into(n // d, counts, budget, power)


def factorize(n: int, budget: int | None = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Complete prime factorization of n != 0.

    `budget` caps the number of rho iterations (deterministic, machine
    independent); exceeding it raises FactorBudgetExceededError rather than
    returning a wrong answer. None means unbounded.
    """
    if n == 0:
        raise InvalidInputError("0 has no prime factorization")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    if m <= _SPF_LIMIT:
        spf = _smallest_prime_factors()
        while m > 1:
            p = spf[m]
            counts[p] = counts.get(p, 0) + 1
            m //= p
        return Factorization(sign, tuple(sorted(counts.items())))
    for p in primes_below_million():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    if m > 1:
        if m < _SPF_LIMIT * _SPF_LIMIT or is_prime(m):
            # a survivor of full trial division below 10^6 that is under 10^12
            # has no factor up to its square root, hence is prime
            counts[m] = counts.get(m, 0) + 1
        else:
            _factor_into(m, counts, _Budget(budget), 1)
    return Factorization(sign, tuple(sorted(counts.items())))


def liouville(n: int) -> int:
    """Liouville lambda(n) = (-1)^Omega(n) for n >= 1; lambda(1) = 1."""
    if n < 1:
        raise InvalidInputError(f"liouville is defined on positive integers, got {n}")
    return factorize(n).liouville


def squarefree_core(n: int) -> tuple[int, int]:
    """Write n = core * scale^2 with |core| square-free and sign(core) = sign(n)."""
    if n == 0:
        raise InvalidInputError("0 has no square-free core")
    fact = factorize(n)
    core, scale = fact.sign, 1
    for p, e in fact.factors:
        if e % 2:
            core *= p
        scale *= p ** (e // 2)
    return core, scale


def merge_factorizations(parts: list[Factorization]) -> Factorization:
    """Product of several factorizations as a single factorization."""
    if not parts:
        return Factorization(1, ())
    return reduce(lambda acc, f: acc.merged_with(f), parts)
