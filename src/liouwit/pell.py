"""Pell equations via continued fractions, and the generalized forms a x^2 - b y^2 = eps.

Everything is read off the middle of the period of sqrt(D) (Perron, Die Lehre von den
Kettenbruechen, section 26). cf_sqrt keeps only the half period it walks (the mirrored
cycle is built on read), the midpoint convergent is folded from that list in place (64-term
leaves of a balanced product tree), the square root of the fundamental unit up to a small
factor, and a x^2 - b y^2 = eps with ab = D is solved off it. That solution is proven
least by the midpoint argument in solve_generalized; it is neither substituted back nor
replayed against a brute-force scan (the tests hold that scan as an oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .arith import integer_sqrt
from .errors import InternalInvariantError, InvalidInputError, SearchExhaustedError
from .verify import GeneralizedSolution, QuadForm

# cf_sqrt refuses a period of this length or more; even, so that the half
# walk stops exactly there. Twice the longest period any test or benchmark
# request reaches: 918,548, for the d = 330 M-certificate.
MAX_CF_PERIOD = 2**21

# terms per leaf of the convergent product tree
_CONTINUANT_BLOCK = 64


@dataclass(frozen=True)
class CFExpansion:
    """sqrt(D) = [a0; cycle repeating], kept as the walked half [a0, a_1, ..., a_h]."""

    D: int
    terms: list[int] = field(hash=False)
    odd: bool

    @property
    def a0(self) -> int:
        return self.terms[0]

    @property
    def period(self) -> int:
        return 2 * len(self.terms) - 2 + self.odd

    @cached_property
    def cycle(self) -> tuple[int, ...]:
        back = self.terms[:0:-1] if self.odd else self.terms[-2:0:-1]
        return (*self.terms[1:], *back, 2 * self.a0)


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


def cf_sqrt(D: int) -> CFExpansion:
    """Continued fraction of sqrt(D) for non-square D > 0; cycle ends at 2*a0.

    With (P_k + sqrt(D)) / Q_k the complete quotients, the walk stops at the
    first h with Q_h = Q_{h+1} (period 2h + 1) or P_h = P_{h+1} (period 2h),
    and keeps a0 .. a_h; the rest of the cycle is the mirror image of a_1 .. a_h
    (less a_h for an even period) and 2 a0, built only when read. A period of
    MAX_CF_PERIOD or more raises SearchExhaustedError.
    """
    if D <= 0:
        raise InvalidInputError(f"need positive D, got {D}")
    a0, exact = integer_sqrt(D)
    if exact:
        raise InvalidInputError(f"{D} is a perfect square")
    terms = [a0]
    # Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), started from Q_{-1} = D
    m, q, q_prev, a = 0, 1, D, a0
    for _ in range(MAX_CF_PERIOD // 2):
        m_next = q * a - m
        q_next = q_prev + a * (m - m_next)
        if q_next == q or m_next == m:
            return CFExpansion(D, terms, q_next == q)
        m, q_prev, q = m_next, q, q_next
        a = (a0 + m) // q
        terms.append(a)
    raise SearchExhaustedError(
        f"the continued fraction of sqrt({D}) has a period of {MAX_CF_PERIOD} or more"
    )


_Matrix = tuple[int, int, int, int]


def _mul(m: _Matrix, n: _Matrix) -> _Matrix:
    """The 2x2 product m n, both read row by row."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _leaves(terms: list[int], stop: int | None) -> list[_Matrix]:
    """Products of [[t, 1], [1, 0]] for t in terms[:stop], one per run of
    _CONTINUANT_BLOCK terms.

    Each leaf folds its run by p_k = t_k p_{k-1} + p_{k-2}, and the same for q, on small ints.
    """
    leaves, stop = [], len(terms) if stop is None else stop
    for i in range(0, stop, _CONTINUANT_BLOCK):
        p, p0, q, q0 = 1, 0, 0, 1
        for t in terms[i : min(i + _CONTINUANT_BLOCK, stop)]:
            p, p0, q, q0 = t * p + p0, p, t * q + q0, q
        leaves.append((p, p0, q, q0))
    return leaves


def _product(leaves: list[_Matrix], lo: int, hi: int) -> _Matrix:
    """leaves[lo] ... leaves[hi - 1] multiplied, each half first."""
    if hi - lo == 1:
        return leaves[lo]
    mid = (lo + hi) // 2
    return _mul(_product(leaves, lo, mid), _product(leaves, mid, hi))


def _column(leaves: list[_Matrix], lo: int, hi: int) -> tuple[int, int]:
    """The first column of _product(leaves, lo, hi): the left half times the right's column."""
    if hi - lo == 1:
        a, _, c, _ = leaves[lo]
        return a, c
    mid = (lo + hi) // 2
    a, b, c, d = _product(leaves, lo, mid)
    e, g = _column(leaves, mid, hi)
    return a * e + b * g, c * e + d * g


def _convergent(terms: list[int], stop: int | None = None) -> _Matrix:
    """(p_k, p_{k-1}, q_k, q_{k-1}) of [t0; ..., tk], tk = terms[stop - 1], by products."""
    leaves = _leaves(terms, stop)
    return _product(leaves, 0, len(leaves))


def _convergent_pq(terms: list[int], stop: int | None = None) -> tuple[int, int]:
    """(p_k, q_k) of [t0; ..., tk], tk = terms[stop - 1]: the first column of the product."""
    leaves = _leaves(terms, stop)
    return _column(leaves, 0, len(leaves))


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
    D, h = exp.D, len(exp.terms) - 1
    if exp.odd:
        p1, p0, q1, q0 = _convergent(exp.terms, h + 1)
        p, q, norm = p1 * q1 + p0 * q0, q1 * q1 + q0 * q0, -1
    else:
        (p, q), norm = _convergent_pq(exp.terms, h), 1
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
    return None if abs(eps) == 2 and x * y % 2 == 0 else (x, y)


def solve_generalized(a: int, b: int, eps: int) -> GeneralizedSolution | None:
    """Minimal positive solution of a x^2 - b y^2 = eps, or None if unsolvable.

    eps is one of 1, -1, 2, -2; solutions with |eps| = 2 must have xy odd. The
    answer is read off the midpoint, (p + q sqrt(D))^2 = |N| e with D = ab and
    e = t + u sqrt(D), and is proven least (Nagell 1951), so nothing replays it:
    1. With s = x sqrt(a) + y sqrt(b), s^2 / |eps| lies in Z[sqrt(D)] (xy odd makes
       a, b odd when |eps| = 2) and has norm 1, so s^2 = |eps| e^k with k >= 1.
    2. If k >= 2, s / e = x' sqrt(a) + y' sqrt(b) solves the same equation with
       0 <= y' < y, and x'y' stays odd when |eps| = 2 (t is even when u is odd).
       x'y' = 0 only for (a, eps) = (1, 1) or (b, eps) = (1, -1), answered by
       (t, u) and (u, t); in every other case the least solution has k = 1.
    3. Then sqrt(a) s = ax + y sqrt(D) squares to a|eps| e, so its ratio to
       p + q sqrt(D) squares to a rational. Hence it, or sqrt(b) s = by + x sqrt(D),
       is r (p + q sqrt(D)) with r rational. gcd(p, q) = 1, and
       gcd(ax, y) = gcd(by, x) = 1 (each divides eps, odd if |eps| = 2), so r = 1:
       p = ax, q = y, N = eps a, or p = by, q = x, N = -eps b. That is _extract's
       test, so the k = 1 solution is the one it returns, and None means none.

    No solution is substituted back. fundamental_from_cf checked N = p^2 - D q^2,
    N | p^2 + D q^2 and N | 2pq exactly, so t^2 - D u^2 = N^2 / N^2 = 1; N = eps a and
    a | p give a (p/a)^2 - b q^2 = N / a = eps, N = -eps b and b | p give
    a q^2 - b (p/b)^2 = -N / b = eps; p, q > 0, and _extract checks xy odd if |eps| = 2.
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
    return None if solution is None else GeneralizedSolution(a, b, eps, *solution)


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
    # forms is loaded here only, so that no certificate construction loads it
    from .forms import enumerate_ambiguous_candidates, half_parameters, split_parameters

    candidates = enumerate_ambiguous_candidates(D)
    if unit_norm(D) == -1:
        return None
    hits: list[tuple[QuadForm, GeneralizedSolution]] = []
    for forms, parameters, eps in (
        (candidates.split_forms, split_parameters, 1),
        (candidates.half_forms, half_parameters, 2),
    ):
        for form in forms:
            sol = solve_generalized(*parameters(form), eps)
            if sol is not None:
                hits.append((form, sol))
    if len(hits) != 1:
        raise InternalInvariantError(
            f"expected exactly one principal candidate for D={D}, found "
            f"{[str(f) for f, _ in hits]}"
        )
    return hits[0]

