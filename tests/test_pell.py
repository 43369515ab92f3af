"""Unit tests for continued fractions, Pell solutions, and the candidate scan."""

import math

import pytest

from liouwit import (
    GeneralizedSolution,
    InvalidInputError,
    QuadForm,
    SearchExhaustedError,
    cf_sqrt,
    fundamental_solution,
    integer_sqrt,
    iterate_solution,
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


def test_iterate_solution():
    fund = fundamental_solution(2)
    sol = GeneralizedSolution(1, 2, 1, 3, 2)
    nxt = iterate_solution(sol, fund)
    assert (nxt.x, nxt.y) == (17, 12)
    again = iterate_solution(nxt, fund)
    assert (again.x, again.y) == (99, 70)
    with pytest.raises(InvalidInputError):
        iterate_solution(GeneralizedSolution(5, 3, 2, 1, 1), fundamental_solution(15))
    with pytest.raises(InvalidInputError):
        iterate_solution(sol, fundamental_solution(3))


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
