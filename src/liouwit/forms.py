"""Binary quadratic forms: evaluation, ambiguous candidates, represented values."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import integer_sqrt
from .errors import InvalidInputError, SearchExhaustedError
from .factor import squarefree_primes
from .verify import QuadForm

_REPRESENTATION_BOUND = 2**16


@dataclass(frozen=True)
class AmbiguousCandidateList:
    """All candidate ambiguous forms of discriminant 4D from the two families."""

    D: int
    split_forms: tuple[QuadForm, ...]
    half_forms: tuple[QuadForm, ...]


def evaluate(f: QuadForm, x: int, y: int) -> int:
    return f.a * x * x + f.b * x * y + f.c * y * y


def split_parameters(f: QuadForm) -> tuple[int, int]:
    """Recover (a, b) with f = (a, 0, -b)."""
    return f.a, -f.c


def half_parameters(f: QuadForm) -> tuple[int, int]:
    """Recover (a, b) with f = (2a, 2a, (a - b)/2)."""
    a = f.a // 2
    return a, a - 2 * f.c


def enumerate_ambiguous_candidates(D: int) -> AmbiguousCandidateList:
    """Candidate ambiguous forms of discriminant 4D for square-free D > 1.

    Split family: (a, 0, -b) for every factorization D = ab with a > 1 and
    b > 1. Half family (only when D = 3 mod 4): (2a, 2a, (a - b)/2) for every
    factorization D = ab with a >= 1. Both listed in ascending a.
    """
    divisors = [1]
    for p in squarefree_primes(D):
        divisors += [d * p for d in divisors]
    divisors.sort()
    split = tuple(QuadForm(a, 0, -(D // a)) for a in divisors if 1 < a < D)
    half: tuple[QuadForm, ...] = ()
    if D % 4 == 3:
        half = tuple(
            QuadForm(2 * a, 2 * a, (a - D // a) // 2) for a in divisors
        )
    return AmbiguousCandidateList(D, split, half)


def _representation_candidates(f: QuadForm, bound: int):
    # fast paths first: f(2,1) = 4a + 2b + c, f(1,2) = a + 2b + 4c,
    # f(0,1) = c, f(1,0) = a
    yield 2, 1
    yield 1, 2
    yield 0, 1
    yield 1, 0
    if f.a > 0 and f.discriminant > 0:
        # indefinite with positive lead: for each y walk x upward from the
        # positivity threshold x > y(-b + sqrt(disc)) / (2a); the isqrt
        # floor can start one step early, which the value > 0 check absorbs
        root = integer_sqrt(f.discriminant)[0]
        for y in range(1, bound + 1):
            x0 = max((y * (root - f.b)) // (2 * f.a) + 1, 0)
            for x in range(x0, x0 + 64):
                yield x, y
        return
    for s in range(1, bound + 1):
        for x in range(0, s + 1):
            for y in list(range(0, s + 1)) + list(range(-s, 0)):
                if max(x, abs(y)) == s:
                    yield x, y


def represented_value_coprime(
    f: QuadForm, D: int, bound: int = _REPRESENTATION_BOUND
) -> tuple[int, int, int]:
    """A positive value theta coprime to 2D represented by f, with its (x, y).

    Deterministic: closed-form pairs are tried first, then a per-y scan of
    x starting at the smallest value making f(x, y) positive (expanding
    square scan for forms with nonpositive lead). Pairs with gcd(x, y) > 1,
    nonpositive values, or values sharing a factor with 2D are skipped.
    Raises SearchExhaustedError if nothing is found within `bound`.
    """
    if f.discriminant != 4 * D:
        raise InvalidInputError(
            f"form {f} has discriminant {f.discriminant}, expected {4 * D}"
        )
    for x, y in _representation_candidates(f, bound):
        if math.gcd(x, y) != 1:
            continue
        value = evaluate(f, x, y)
        if value > 0 and math.gcd(value, 2 * D) == 1:
            return value, x, y
    raise SearchExhaustedError(
        f"no represented value coprime to {2 * D} found for {f} within {bound}"
    )
