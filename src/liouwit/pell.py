"""Pell equations via continued fractions, and the generalized forms a x^2 - b y^2 = eps.

Everything is read off the middle of the period of sqrt(D) (Perron, Die Lehre
von den Kettenbruechen, section 26): cf_sqrt walks half the period and mirrors
the rest, fundamental_from_cf keeps the midpoint convergent, which is the
square root of the fundamental unit up to a small factor, and the solutions of
a x^2 - b y^2 = eps with ab = D are read off that square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arith import integer_sqrt, jacobi
from .errors import InternalInvariantError, InvalidInputError, SearchExhaustedError
from .factor import factorize
from .forms import (
    QuadForm,
    enumerate_ambiguous_candidates,
    half_parameters,
    split_parameters,
)

# agreement window for the double-entry brute check inside solve_generalized
CROSS_CHECK_Y_BOUND = 10**4

# cf_sqrt refuses a period of this length or more; even, so that the half
# walk stops exactly there. Twice the longest period any test or benchmark
# request reaches: 918,548, for the d = 330 M-certificate.
MAX_CF_PERIOD = 2**21


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
    """Minimal (t, u) with t^2 - D u^2 = 1, kept as its square root.

    t + u sqrt(D) = (p + q sqrt(D))^2 / |N| with N = p^2 - D q^2. N = -1
    exactly when the fundamental unit has norm -1, and then (p, q) is the
    minimal solution of x^2 - D y^2 = -1. The full-size t and u are built on
    first read.
    """

    D: int
    p: int
    q: int
    N: int
    unit_norm: int

    @cached_property
    def t(self) -> int:
        return (self.p * self.p + self.D * self.q * self.q) // abs(self.N)

    @cached_property
    def u(self) -> int:
        return 2 * self.p * self.q // abs(self.N)

    @property
    def neg_solution(self) -> tuple[int, int] | None:
        return (self.p, self.q) if self.unit_norm == -1 else None


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
    """Continued fraction of sqrt(D) for non-square D > 0; cycle ends at 2*a0.

    With (P_k + sqrt(D)) / Q_k the complete quotients, the walk stops at the
    first h with Q_h = Q_{h+1} (period 2h + 1) or P_h = P_{h+1} (period 2h),
    and the rest of the cycle is the mirror image of a_1 .. a_h. A period of
    MAX_CF_PERIOD or more raises SearchExhaustedError.
    """
    if D <= 0:
        raise InvalidInputError(f"need positive D, got {D}")
    a0, exact = integer_sqrt(D)
    if exact:
        raise InvalidInputError(f"{D} is a perfect square")
    half: list[int] = []
    # Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), started from Q_{-1} = D
    m, q, q_prev, a = 0, 1, D, a0
    for _ in range(MAX_CF_PERIOD // 2):
        m_next = q * a - m
        q_next = q_prev + a * (m - m_next)
        if q_next == q:
            return CFExpansion(D, a0, (*half, *half[::-1], 2 * a0))
        if m_next == m:
            return CFExpansion(D, a0, (*half, *half[-2::-1], 2 * a0))
        m, q_prev, q = m_next, q, q_next
        a = (a0 + m) // q
        half.append(a)
    raise SearchExhaustedError(
        f"the continued fraction of sqrt({D}) has a period of {MAX_CF_PERIOD} or more"
    )


def _convergent(terms: list[int]) -> tuple[int, int, int, int]:
    """(p_k, p_{k-1}, q_k, q_{k-1}) of [t0; t1, ..., tk] by balanced matrix products."""
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
    return mats[0]


@lru_cache(maxsize=4096)
def fundamental_solution(D: int) -> PellFundamental:
    """Minimal positive solution of t^2 - D u^2 = 1 for non-square D > 0.

    The period parity of sqrt(D) decides the fundamental unit's norm; an odd
    period yields the minimal solution of x^2 - D y^2 = -1 as well.
    """
    return fundamental_from_cf(cf_sqrt(D))


def fundamental_from_cf(exp: CFExpansion) -> PellFundamental:
    """fundamental_solution(exp.D), read off the expansion already computed.

    For a period L = 2h the midpoint pair is (p, q) = (p_{h-1}, q_{h-1}), the
    convergent before the middle, with N = p^2 - D q^2 = +-Q_h. For L = 2h + 1
    it is the minimal solution of x^2 - D y^2 = -1, x = p_h q_h + p_{h-1} q_{h-1},
    y = q_h^2 + q_{h-1}^2, with N = -1.
    """
    D, h = exp.D, exp.period // 2
    if exp.period % 2:
        p1, p0, q1, q0 = _convergent([exp.a0, *exp.cycle[:h]])
        p, q, norm = p1 * q1 + p0 * q0, q1 * q1 + q0 * q0, -1
    else:
        p, _, q, _ = _convergent([exp.a0, *exp.cycle[: h - 1]])
        norm = 1
    N = p * p - D * q * q
    # t = (p^2 + D q^2) / |N| and u = 2pq / |N| give t^2 - D u^2 = N^2 / N^2,
    # so N | p^2 + D q^2 and N | 2pq stand in for the full-size check
    n = abs(N)
    pn, qn = p % n, q % n
    if (N == -1) != (norm == -1) or (pn * pn + D * qn * qn) % n or 2 * pn * qn % n:
        raise InternalInvariantError(f"Pell recurrence failed for D={D}")
    return PellFundamental(D, p, q, N, norm)


def _extract(a: int, b: int, eps: int, fund: PellFundamental) -> tuple[int, int] | None:
    """Minimal (x, y) with a x^2 - b y^2 = eps, read off the midpoint pair.

    A solution satisfies (x sqrt(a) + y sqrt(b))^2 = |eps| (t + u sqrt(D)), so
    its multiple by sqrt(a) (or sqrt(b)) is the midpoint p + q sqrt(D).
    """
    p, q, N = fund.p, fund.q, fund.N
    if N == eps * a and p % a == 0:
        x, y = p // a, q
    elif N == -eps * b and p % b == 0:
        x, y = q, p // b
    else:
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
    Solutions are read off the midpoint pair of the fundamental solution of
    D = ab, then replayed against a bounded brute-force scan;
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
    else:
        solution = _extract(a, b, eps, fund)

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

