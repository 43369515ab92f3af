"""Pell equations via continued fractions, and the generalized forms a x^2 - b y^2 = eps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import integer_sqrt, jacobi
from .errors import InternalInvariantError, InvalidInputError
from .factor import factorize
from .forms import (
    QuadForm,
    enumerate_ambiguous_candidates,
    half_parameters,
    split_parameters,
)

# agreement window for the double-entry brute check inside solve_generalized
CROSS_CHECK_Y_BOUND = 10**4


@dataclass(frozen=True)
class CFExpansion:
    """Canonical continued fraction of sqrt(D): [a0; cycle repeating]."""

    D: int
    a0: int
    cycle: tuple[int, ...]

    @property
    def period(self) -> int:
        return len(self.cycle)


@dataclass(frozen=True)
class PellFundamental:
    """Minimal (t, u) with t^2 - D u^2 = 1, plus the fundamental unit's norm."""

    D: int
    t: int
    u: int
    unit_norm: int
    neg_solution: tuple[int, int] | None


@dataclass(frozen=True)
class GeneralizedSolution:
    """Positive (x, y) with a x^2 - b y^2 = eps; xy is odd whenever |eps| = 2."""

    a: int
    b: int
    eps: int
    x: int
    y: int

    def check(self) -> bool:
        ok = self.a * self.x * self.x - self.b * self.y * self.y == self.eps
        if abs(self.eps) == 2:
            ok = ok and self.x * self.y % 2 == 1
        return ok and self.x > 0 and self.y > 0


def cf_sqrt(D: int) -> CFExpansion:
    """Continued fraction of sqrt(D) for non-square D > 0; cycle ends at 2*a0."""
    if D <= 0:
        raise InvalidInputError(f"need positive D, got {D}")
    a0, exact = integer_sqrt(D)
    if exact:
        raise InvalidInputError(f"{D} is a perfect square")
    cycle = []
    m, q, a = 0, 1, a0
    while True:
        m = q * a - m
        q = (D - m * m) // q
        a = (a0 + m) // q
        cycle.append(a)
        if q == 1:  # the state returns to the start exactly once per period
            return CFExpansion(D, a0, tuple(cycle))


def _convergent(terms: list[int]) -> tuple[int, int]:
    """Numerator and denominator of [t0; t1, ..., tk] by balanced matrix products."""
    mats = [(t, 1, 1, 0) for t in terms]
    while len(mats) > 1:
        nxt = []
        for i in range(0, len(mats) - 1, 2):
            a, b, c, d = mats[i]
            e, f, g, h = mats[i + 1]
            nxt.append(
                (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            )
        if len(mats) % 2:
            nxt.append(mats[-1])
        mats = nxt
    a, _, c, _ = mats[0]
    return a, c


@lru_cache(maxsize=4096)
def fundamental_solution(D: int) -> PellFundamental:
    """Minimal positive solution of t^2 - D u^2 = 1 for non-square D > 0.

    The period parity of sqrt(D) decides the fundamental unit's norm; an odd
    period yields the minimal solution of x^2 - D y^2 = -1 as well.
    """
    return fundamental_from_cf(cf_sqrt(D))


def fundamental_from_cf(exp: CFExpansion) -> PellFundamental:
    """fundamental_solution(exp.D), read off the expansion already computed."""
    D = exp.D
    terms = [exp.a0] + list(exp.cycle[:-1])
    p, q = _convergent(terms)
    if exp.period % 2 == 0:
        fund = PellFundamental(D, p, q, 1, None)
    else:
        t = p * p + D * q * q
        u = 2 * p * q
        fund = PellFundamental(D, t, u, -1, (p, q))
    if fund.t * fund.t - D * fund.u * fund.u != 1:
        raise InternalInvariantError(f"Pell recurrence failed for D={D}")
    return fund


def _exact_ratio_square(num: int, den: int) -> int | None:
    """x with x^2 = num/den when that quotient is a perfect square, else None."""
    if num <= 0 or num % den:
        return None
    root, exact = integer_sqrt(num // den)
    return root if exact else None


def _extract(a: int, b: int, eps: int, t: int) -> tuple[int, int] | None:
    if eps == 1:
        x, y = _exact_ratio_square(t + 1, 2 * a), _exact_ratio_square(t - 1, 2 * b)
    elif eps == -1:
        x, y = _exact_ratio_square(t - 1, 2 * a), _exact_ratio_square(t + 1, 2 * b)
    elif eps == 2:
        x, y = _exact_ratio_square(t + 1, a), _exact_ratio_square(t - 1, b)
    else:  # eps == -2
        x, y = _exact_ratio_square(t - 1, a), _exact_ratio_square(t + 1, b)
    if x is None or y is None or x == 0 or y == 0:
        return None
    if abs(eps) == 2 and x * y % 2 == 0:
        return None
    return x, y


def _local_obstruction(a: int, b: int, eps: int) -> bool:
    """True when a x^2 - b y^2 = eps is insoluble for congruence reasons."""
    if abs(eps) == 2:
        # xy odd forces x^2 = y^2 = 1 mod 8, hence a - b = eps mod 8
        if (a - b - eps) % 8:
            return True
    for p in factorize(a).factors:
        p = p[0]
        if p == 2:
            continue
        # mod p | a the equation reads -b y^2 = eps, so -eps/b must be square
        if jacobi(-eps * pow(b, -1, p) % p, p) == -1:
            return True
    for p in factorize(b).factors:
        p = p[0]
        if p == 2:
            continue
        if jacobi(eps * pow(a, -1, p) % p, p) == -1:
            return True
    return False


def _brute_minimal(a: int, b: int, eps: int, y_bound: int) -> tuple[int, int] | None:
    """Smallest-y solution with y <= y_bound, by direct scan."""
    if _local_obstruction(a, b, eps):
        return None
    for y in range(1, y_bound + 1):
        num = b * y * y + eps
        if num <= 0 or num % a:
            continue
        x, exact = integer_sqrt(num // a)
        if exact and x > 0:
            if abs(eps) == 2 and x * y % 2 == 0:
                continue
            return x, y
    return None


def solve_generalized(a: int, b: int, eps: int) -> GeneralizedSolution | None:
    """Minimal positive solution of a x^2 - b y^2 = eps, or None if unsolvable.

    eps is one of 1, -1, 2, -2; solutions with |eps| = 2 must have xy odd.
    Solutions are extracted from the fundamental solution of D = ab through
    exact square tests, then replayed against a bounded brute-force scan;
    any disagreement raises InternalInvariantError.
    """
    if a < 1 or b < 1:
        raise InvalidInputError(f"need positive a, b; got ({a}, {b})")
    if eps not in (1, -1, 2, -2):
        raise InvalidInputError(f"eps must be one of +-1, +-2; got {eps}")
    if math.gcd(a, b) != 1:
        raise InvalidInputError(f"a and b must be coprime; got ({a}, {b})")
    D = a * b
    if integer_sqrt(D)[1]:
        raise InvalidInputError(f"a*b = {D} must not be a perfect square")
    fund = fundamental_solution(D)

    solution: tuple[int, int] | None
    if a == 1 and eps == 1:
        solution = (fund.t, fund.u)
    elif b == 1 and eps == -1:
        solution = (fund.u, fund.t)
    elif a == 1 and eps == -1:
        solution = fund.neg_solution
    else:
        solution = _extract(a, b, eps, fund.t)

    # scanning past the claimed minimum is pointless: only a smaller hit matters
    window = CROSS_CHECK_Y_BOUND
    if solution is not None:
        window = min(window, solution[1])
    brute = _brute_minimal(a, b, eps, window)
    if brute is not None and brute != solution:
        raise InternalInvariantError(
            f"extraction {solution} disagrees with brute force {brute} for "
            f"{a} x^2 - {b} y^2 = {eps}"
        )
    if solution is None:
        return None
    sol = GeneralizedSolution(a, b, eps, solution[0], solution[1])
    if not sol.check():
        raise InternalInvariantError(f"candidate solution fails substitution: {sol}")
    return sol


def iterate_solution(
    sol: GeneralizedSolution, fund: PellFundamental
) -> GeneralizedSolution:
    """Next-larger solution of the same equation, composed with (t, u)."""
    if abs(sol.eps) != 1:
        raise InvalidInputError("iteration is defined for eps = +-1 only")
    if fund.D != sol.a * sol.b:
        raise InvalidInputError(
            f"fundamental solution is for D={fund.D}, equation needs {sol.a * sol.b}"
        )
    x = fund.t * sol.x + sol.b * fund.u * sol.y
    y = sol.a * fund.u * sol.x + fund.t * sol.y
    nxt = GeneralizedSolution(sol.a, sol.b, sol.eps, x, y)
    if not nxt.check():
        raise InternalInvariantError(f"iterated solution fails substitution: {nxt}")
    return nxt


def unit_norm(D: int) -> int:
    """Norm of the fundamental unit of discriminant 4D: -1 iff the period is odd."""
    return fundamental_solution(D).unit_norm


def principal_class_ambiguous(
    D: int,
) -> tuple[QuadForm, GeneralizedSolution] | None:
    """The unique nontrivial ambiguous candidate of discriminant 4D representing 1.

    Only meaningful when the fundamental unit has norm +1; returns None for
    norm -1. A split candidate (a, 0, -b) represents 1 iff a x^2 - b y^2 = 1
    is solvable; a half candidate iff a x^2 - b y^2 = 2 has an xy-odd
    solution. Exactly one candidate may pass; anything else raises
    InternalInvariantError.
    """
    candidates = enumerate_ambiguous_candidates(D)
    if unit_norm(D) == -1:
        return None
    hits: list[tuple[QuadForm, GeneralizedSolution]] = []
    for form in candidates.split_forms:
        a, b = split_parameters(form)
        sol = solve_generalized(a, b, 1)
        if sol is not None:
            hits.append((form, sol))
    for form in candidates.half_forms:
        a, b = half_parameters(form)
        sol = solve_generalized(a, b, 2)
        if sol is not None:
            hits.append((form, sol))
    if len(hits) != 1:
        raise InternalInvariantError(
            f"expected exactly one principal candidate for D={D}, found "
            f"{[str(f) for f, _ in hits]}"
        )
    return hits[0]

