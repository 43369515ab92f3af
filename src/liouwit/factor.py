"""Integer factorization, the Liouville function, square-free core extraction,
and prime ranges.

One bytearray sieve (primerange) supplies every prime: the primes below 10^6
that factorize trial-divides by, kept in one typed array that grows in windows
of 2^16 numbers only as far as the inputs so far have needed, and the ranges
the sign sieve divides out.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress

from .arith import integer_sqrt, is_prime
from .errors import FactorBudgetExceededError, InvalidInputError

# factorize trial-divides by every prime below this
_TRIAL_LIMIT = 10**6

# numbers sieved per primerange call when the trial primes grow
_TRIAL_WINDOW = 2**16

# Iterations of the rho inner loop before giving up; deterministic, not wall-clock.
DEFAULT_FACTOR_BUDGET = 4_000_000

# Largest n a sign report runs to; a brute scan runs this far past its first n^2 + d >= 1.
BRUTE_SCAN_BOUND = 10**7


def primerange(lo: int, hi: int) -> list[int]:
    """Ascending primes p with lo <= p < hi, by a sieve of [lo, hi) whose base
    primes up to sqrt(hi) come from this function."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    candidate = bytearray(b"\x01") * (hi - lo)
    for p in primerange(2, math.isqrt(hi - 1) + 1):
        first = max(p * p, -(-lo // p) * p) - lo
        candidate[first::p] = bytes(len(range(first, hi - lo, p)))
    return list(compress(range(lo, hi), candidate))


class _TrialPrimes:
    """The primes below `bound`, extended on demand up to _TRIAL_LIMIT."""

    def __init__(self) -> None:
        self.bound, self.primes = 2, array("I")

    def below(self, limit: int) -> array:
        """An array('I') that holds every prime below min(limit, _TRIAL_LIMIT)."""
        if limit > self.bound and self.bound < _TRIAL_LIMIT:
            # at least doubling keeps the growths logarithmic in number; a window
            # at a time, no list of more than its primes is ever held
            hi = min(_TRIAL_LIMIT, max(limit, 2 * self.bound))
            for lo in range(self.bound, hi, _TRIAL_WINDOW):
                self.primes.extend(primerange(lo, min(lo + _TRIAL_WINDOW, hi)))
            self.bound = hi
        return self.primes


_trial_primes = _TrialPrimes()


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

    @property
    def squarefree_split(self) -> tuple[int, int]:
        """(core, scale) with value = core * scale^2, |core| square-free, sign(core) = sign."""
        core, scale = self.sign, 1
        for p, e in self.factors:
            if e % 2:
                core *= p
            scale *= p ** (e // 2)
        return core, scale

    def to_json_dict(self) -> dict:
        return {"sign": self.sign, "factors": [[str(p), e] for p, e in self.factors]}


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
                # the sign of x - y multiplies q by -1 mod n, which no gcd sees
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
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
    """Accumulate the factorization of n > 1 into counts.

    n has no prime factor below 10^6, or none up to its square root: so has
    every factor rho splits off. Below 10^12 both mean that n is prime.
    """
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(n):
        counts[n] = counts.get(n, 0) + power
        return
    root, exact = integer_sqrt(n)
    if exact:
        _factor_into(root, counts, budget, 2 * power)
        return
    d = _rho_brent(n, budget)
    _factor_into(d, counts, budget, power)
    _factor_into(n // d, counts, budget, power)


def check_budget(budget: int | None) -> None:
    """Refuse a negative rho budget; None (unbounded) and 0 are valid."""
    if budget is not None and budget < 0:
        raise InvalidInputError(f"budget must be non-negative, got {budget}")


def factorize(n: int, budget: int | None = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Complete prime factorization of n != 0.

    `budget` caps the number of rho iterations (deterministic, machine
    independent); exceeding it raises FactorBudgetExceededError rather than
    returning a wrong answer. None means unbounded.
    """
    check_budget(budget)
    if n == 0:
        raise InvalidInputError("0 has no prime factorization")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _trial_primes.below(math.isqrt(m) + 1):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    if m > 1:
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
    return factorize(n).squarefree_split


def squarefree_primes(n: int) -> tuple[int, ...]:
    """The ascending primes of square-free n >= 2."""
    if n < 2:
        raise InvalidInputError(f"need a square-free integer >= 2, got {n}")
    fact = factorize(n)
    if any(e > 1 for _, e in fact.factors):
        raise InvalidInputError(f"{n} is not square-free")
    return tuple(p for p, _ in fact.factors)


def merge_factorizations(parts: list[Factorization]) -> Factorization:
    """Product of several factorizations as a single factorization."""
    sign = 1
    counts: dict[int, int] = {}
    for part in parts:
        sign *= part.sign
        for p, e in part.factors:
            counts[p] = counts.get(p, 0) + e
    return Factorization(sign, tuple(sorted(counts.items())))
