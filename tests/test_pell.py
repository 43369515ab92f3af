"""Unit tests for continued fractions, Pell solutions, and the candidate scan."""

import math
import tracemalloc

import pytest

from liouwit import (
    GeneralizedSolution,
    InvalidInputError,
    QuadForm,
    SearchExhaustedError,
    cf_sqrt,
    fundamental_solution,
    integer_sqrt,
    principal_class_ambiguous,
    solve_generalized,
    unit_norm,
)
from liouwit import pell


def test_cf_sqrt_pinned():
    assert (cf_sqrt(2).a0, cf_sqrt(2).cycle) == (1, (2,))
    assert (cf_sqrt(3).a0, cf_sqrt(3).cycle) == (1, (1, 2))
    assert (cf_sqrt(7).a0, cf_sqrt(7).cycle) == (2, (1, 1, 1, 4))
    assert (cf_sqrt(13).a0, cf_sqrt(13).cycle) == (3, (1, 1, 1, 1, 6))
    assert cf_sqrt(61).period == 11
    assert cf_sqrt(2).period == 1


def test_cf_sqrt_cycle_ends_at_double():
    for D in (2, 3, 5, 6, 7, 10, 13, 19, 31, 61, 94):
        exp = cf_sqrt(D)
        assert exp.cycle[-1] == 2 * exp.a0


def test_cf_sqrt_rejects():
    with pytest.raises(InvalidInputError):
        cf_sqrt(0)
    with pytest.raises(InvalidInputError):
        cf_sqrt(9)


def test_fundamental_solution_pinned():
    f2 = fundamental_solution(2)
    assert (f2.t, f2.u, f2.unit_norm, f2.neg_solution) == (3, 2, -1, (1, 1))
    f3 = fundamental_solution(3)
    assert (f3.t, f3.u, f3.unit_norm, f3.neg_solution) == (2, 1, 1, None)
    f6 = fundamental_solution(6)
    assert (f6.t, f6.u) == (5, 2)
    f61 = fundamental_solution(61)
    assert (f61.t, f61.u) == (1766319049, 226153980)
    assert f61.neg_solution == (29718, 3805)


def test_fundamental_solution_pinned_for_the_longest_period():
    # D of construct_M(330, -1), period 918,548: the longest any request reaches
    fund = fundamental_solution(8804767929867030)
    assert (fund.p.bit_length(), fund.q.bit_length()) == (788425, 788398)
    assert (fund.N, fund.unit_norm) == (330, 1)
    P = 10**9 + 7
    assert (fund.p % P, fund.q % P) == (426207639, 782910463)


def test_convergent_pq_peak_memory():
    # the leaves fold runs of terms, so no per-term matrix is ever held
    terms = [1, 2, 3, 1, 1, 4] * 40000
    tracemalloc.start()
    try:
        pell._convergent_pq(terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6


def test_fundamental_solution_peak_memory():
    # period 216,740: the half walk is held once and folded in place, so
    # neither a mirrored cycle nor a copied term list is ever built
    fundamental_solution.cache_clear()
    tracemalloc.start()
    try:
        fund = fundamental_solution(1791383334047790)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fund.unit_norm == 1
    assert peak < 2.5 * 10**6


def test_fundamental_solution_satisfies_equation():
    for D in range(2, 150):
        if integer_sqrt(D)[1]:
            continue
        f = fundamental_solution(D)
        assert f.t * f.t - D * f.u * f.u == 1
        if f.neg_solution is not None:
            x, y = f.neg_solution
            assert x * x - D * y * y == -1


def test_unit_norm_pinned():
    assert unit_norm(2) == -1
    assert unit_norm(3) == 1
    assert unit_norm(5) == -1
    assert unit_norm(6) == 1
    assert unit_norm(10) == -1
    assert unit_norm(15) == 1


def test_solvable_split_forces_unit_norm_plus_one():
    # the verifier derives its unit_norm clause from this: a x^2 - b y^2 = 1
    # with a, b > 1 and ab = D square-free forces the fundamental unit to norm +1
    splits = 0
    for D in range(2, 5000):
        if any(D % (p * p) == 0 for p in range(2, math.isqrt(D) + 1)):
            continue
        for a in range(2, D // 2 + 1):
            if D % a == 0 and solve_generalized(a, D // a, 1) is not None:
                assert unit_norm(D) == 1, (a, D // a)
                splits += 1
    assert splits == 1623


def test_solve_generalized_pinned():
    assert solve_generalized(3, 2, 1) == GeneralizedSolution(3, 2, 1, 1, 1)
    assert solve_generalized(2, 3, 1) is None
    assert solve_generalized(2, 3, -1) == GeneralizedSolution(2, 3, -1, 1, 1)
    assert solve_generalized(1, 2, -1) == GeneralizedSolution(1, 2, -1, 1, 1)
    assert solve_generalized(6, 1, -1) == GeneralizedSolution(6, 1, -1, 2, 5)
    assert solve_generalized(5, 3, 2) == GeneralizedSolution(5, 3, 2, 1, 1)
    assert solve_generalized(3, 5, 2) is None
    assert solve_generalized(1, 6, 1) == GeneralizedSolution(1, 6, 1, 5, 2)
    # the d = 6 certificate equation
    assert solve_generalized(1705, 6, 1) == GeneralizedSolution(1705, 6, 1, 7, 118)


def test_solve_generalized_rejects():
    with pytest.raises(InvalidInputError):
        solve_generalized(2, 4, 1)  # gcd > 1
    with pytest.raises(InvalidInputError):
        solve_generalized(2, 8, 1)  # ab square
    with pytest.raises(InvalidInputError):
        solve_generalized(3, 2, 3)  # bad eps
    with pytest.raises(InvalidInputError):
        solve_generalized(0, 2, 1)


def test_generalized_solution_check():
    assert GeneralizedSolution(3, 2, 1, 1, 1).check()
    assert not GeneralizedSolution(3, 2, 1, 2, 1).check()
    assert not GeneralizedSolution(5, 3, 2, 2, 1).check()  # xy even


def test_principal_class_ambiguous_pinned():
    assert principal_class_ambiguous(2) is None  # unit norm -1
    assert principal_class_ambiguous(10) is None

    form, sol = principal_class_ambiguous(6)
    assert form == QuadForm(3, 0, -2)
    assert sol == GeneralizedSolution(3, 2, 1, 1, 1)

    form, sol = principal_class_ambiguous(15)
    assert form == QuadForm(10, 10, 1)
    assert sol == GeneralizedSolution(5, 3, 2, 1, 1)

    form, sol = principal_class_ambiguous(21)
    assert form == QuadForm(7, 0, -3)
    assert sol == GeneralizedSolution(7, 3, 1, 2, 3)


def test_principal_class_ambiguous_consistency():
    for D in (6, 15, 21, 30, 33, 35):
        hit = principal_class_ambiguous(D)
        if hit is None:
            assert unit_norm(D) == -1
            continue
        form, sol = hit
        assert form.discriminant == 4 * D
        assert sol.check()


def test_cf_sqrt_period_budget(monkeypatch):
    # with an even budget, a period below it is expanded, one at or above it refused
    monkeypatch.setattr(pell, "MAX_CF_PERIOD", 12)
    assert cf_sqrt(61).period == 11
    monkeypatch.setattr(pell, "MAX_CF_PERIOD", 10)
    with pytest.raises(SearchExhaustedError):
        cf_sqrt(61)
    monkeypatch.setattr(pell, "MAX_CF_PERIOD", 8)
    assert cf_sqrt(19).cycle == (2, 1, 3, 1, 2, 8)
    monkeypatch.setattr(pell, "MAX_CF_PERIOD", 6)
    with pytest.raises(SearchExhaustedError):
        cf_sqrt(19)
    assert cf_sqrt(13).period == 5


def test_solve_generalized_leaves_the_unit_unbuilt():
    fundamental_solution.cache_clear()
    assert solve_generalized(1705, 6, 1) == GeneralizedSolution(1705, 6, 1, 7, 118)
    fund = fundamental_solution(1705 * 6)
    assert "t" not in vars(fund) and "u" not in vars(fund)
    assert fund.t * fund.t - fund.D * fund.u * fund.u == 1


def _ratio_square(num, den):
    if num <= 0 or num % den:
        return None
    root = math.isqrt(num // den)
    return root if root * root == num // den else None


def extract_by_square_roots(a, b, eps, t):
    """The extraction the midpoint method replaced: x^2 and y^2 are
    (t +- 1) / a and (t -+ 1) / b, halved when |eps| = 1."""
    k = 2 // abs(eps)
    plus, minus = (t + 1, t - 1) if eps > 0 else (t - 1, t + 1)
    x, y = _ratio_square(plus, k * a), _ratio_square(minus, k * b)
    if not x or not y or (abs(eps) == 2 and x * y % 2 == 0):
        return None
    return x, y


def test_extract_matches_square_root_extraction():
    cases = 0
    for D in range(2, 5000):
        if math.isqrt(D) ** 2 == D:
            continue
        fund = fundamental_solution(D)
        for a in range(1, D + 1):
            if D % a or math.gcd(a, D // a) != 1:
                continue
            for eps in (1, -1, 2, -2):
                want = extract_by_square_roots(a, D // a, eps, fund.t)
                assert pell._extract(a, D // a, eps, fund) == want, (a, D // a, eps)
                cases += 1
    assert cases > 100_000


def plain_scan(a, b, eps, y_bound, y_classes):
    """Smallest-y solution with y <= y_bound, over every y in y_classes mod a."""
    for y in sorted(base + r for base in range(0, y_bound + 1, a) for r in y_classes):
        if 1 <= y <= y_bound:
            v = (b * y * y + eps) // a
            x = math.isqrt(v)
            if x * x == v and x > 0 and (abs(eps) == 1 or x * y % 2):
                return x, y
    return None


def test_solve_generalized_matches_the_plain_scan():
    # The oracle visits every y up to the window whose class mod a passes the
    # plain test a | b y^2 + eps, one period of y scanned residue by residue.
    # solve_generalized reads its answer off the midpoint and replays nothing,
    # so within the window it must be the oracle's hit, and a solution beyond
    # the window means the oracle finds none. The window is 10^4 on every
    # split of D < 1000 and 37 above that.
    cases = 0
    for D in range(2, 3000):
        if any(D % (p * p) == 0 for p in range(2, math.isqrt(D) + 1)):
            continue
        if math.isqrt(D) ** 2 == D:
            continue
        window = 10**4 if D < 1000 else 37
        for a in range(1, D + 1):
            if D % a:
                continue
            b = D // a
            period = [b * r * r % a for r in range(min(a, window + 1))]
            for eps in (1, -1, 2, -2):
                y_classes = [r for r, v in enumerate(period) if (v + eps) % a == 0]
                want = plain_scan(a, b, eps, window, y_classes)
                sol = solve_generalized(a, b, eps)
                got = None if sol is None else (sol.x, sol.y)
                fits = got if got is not None and got[1] <= window else None
                assert want == fits, (a, b, eps)
                cases += 1
    assert cases > 35_000


def test_solve_generalized_factors_nothing(monkeypatch):
    # the midpoint answer is proven least, so no brute-force replay factors a or b
    from liouwit import factor

    calls = []
    real = factor.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    for module in (factor, pell):
        monkeypatch.setattr(module, "factorize", counting, raising=False)
    assert solve_generalized(1705, 6, 1) == GeneralizedSolution(1705, 6, 1, 7, 118)
    assert solve_generalized(3, 143, 1) == GeneralizedSolution(3, 143, 1, 504, 73)
    assert solve_generalized(1, 2, -1) == GeneralizedSolution(1, 2, -1, 1, 1)
    assert calls == []
