"""Unit tests for binary quadratic forms and ambiguous candidate enumeration."""

import math

import pytest

from liouwit import (
    InvalidInputError,
    QuadForm,
    SearchExhaustedError,
    enumerate_ambiguous_candidates,
    evaluate,
    half_parameters,
    represented_value_coprime,
    split_parameters,
)


def test_discriminant_and_str():
    f = QuadForm(1705, 0, -6)
    assert f.discriminant == 4 * 1705 * 6
    assert str(f) == "(1705, 0, -6)"
    assert QuadForm(2, 2, -7).discriminant == 4 + 56


def test_is_valid():
    assert QuadForm(3, 0, -2).is_valid()
    assert not QuadForm(2, 0, -8).is_valid()  # imprimitive
    assert not QuadForm(1, 0, -4).is_valid()  # square discriminant 16
    assert QuadForm(1, 0, 1).is_valid()


def test_evaluate():
    f = QuadForm(2, 3, -5)
    assert evaluate(f, 1, 1) == 0
    assert evaluate(f, 2, 1) == 9
    assert evaluate(f, 0, 2) == -20


def test_enumerate_candidates_d6():
    cands = enumerate_ambiguous_candidates(6)
    assert cands.split_forms == (QuadForm(2, 0, -3), QuadForm(3, 0, -2))
    assert cands.half_forms == ()  # 6 = 2 mod 4


def test_enumerate_candidates_d15():
    cands = enumerate_ambiguous_candidates(15)
    assert cands.split_forms == (QuadForm(3, 0, -5), QuadForm(5, 0, -3))
    # 15 = 3 mod 4: halves for every ordered divisor pair, ascending a
    assert cands.half_forms == (
        QuadForm(2, 2, -7),
        QuadForm(6, 6, -1),
        QuadForm(10, 10, 1),
        QuadForm(30, 30, 7),
    )
    for f in cands.split_forms + cands.half_forms:
        assert f.discriminant == 4 * 15


def test_enumerate_counts_match_divisor_structure():
    # split family has 2 tau(D) - 2 ordered pairs minus the two trivial ones,
    # i.e. tau(D) - 2 forms; halves appear only for D = 3 mod 4
    for D, tau in ((6, 4), (10, 4), (15, 4), (30, 8), (105, 8), (10230, 32)):
        cands = enumerate_ambiguous_candidates(D)
        assert len(cands.split_forms) == tau - 2
        assert len(cands.half_forms) == (tau if D % 4 == 3 else 0)
    assert len(enumerate_ambiguous_candidates(10230).split_forms) == 30


def test_enumerate_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        enumerate_ambiguous_candidates(12)
    with pytest.raises(InvalidInputError):
        enumerate_ambiguous_candidates(1)


def test_split_half_parameters_roundtrip():
    assert split_parameters(QuadForm(3, 0, -5)) == (3, 5)
    assert half_parameters(QuadForm(10, 10, 1)) == (5, 3)
    assert half_parameters(QuadForm(2, 2, -7)) == (1, 15)
    for f in enumerate_ambiguous_candidates(15).half_forms:
        a, b = half_parameters(f)
        assert a * b == 15
        assert QuadForm(2 * a, 2 * a, (a - b) // 2) == f


def test_represented_value_pinned():
    assert represented_value_coprime(QuadForm(3, 0, -2), 6) == (1, 1, 1)
    assert represented_value_coprime(QuadForm(2, 0, -3), 6) == (5, 2, 1)
    assert represented_value_coprime(QuadForm(6, 6, -1), 15) == (11, 1, 1)
    assert represented_value_coprime(QuadForm(1, 0, -6), 6) == (1, 1, 0)


def test_represented_value_large_split():
    # lopsided split of the d = 15, t = +1 certificate discriminant: the
    # first positive value needs x near y * sqrt(b/a), far beyond any
    # small-ring scan
    D = 15 * 21378769
    theta, x, y = represented_value_coprime(QuadForm(3, 0, -(D // 3)), D)
    assert (theta, x, y) == (100507, 5972, 1)
    assert 3 * x * x - (D // 3) * y * y == theta
    assert math.gcd(theta, 2 * D) == 1


def test_represented_value_properties():
    for D in (6, 10, 15, 21, 30):
        cands = enumerate_ambiguous_candidates(D)
        for f in cands.split_forms + cands.half_forms:
            theta, x, y = represented_value_coprime(f, D)
            assert theta > 0
            assert math.gcd(theta, 2 * D) == 1
            assert math.gcd(x, y) == 1
            assert evaluate(f, x, y) == theta


def test_represented_value_mismatched_discriminant():
    with pytest.raises(InvalidInputError):
        represented_value_coprime(QuadForm(3, 0, -2), 5)


def test_represented_value_exhaustion():
    # (2, 0, -3) never takes a value coprime to 10 with only 4 candidates
    with pytest.raises(SearchExhaustedError):
        represented_value_coprime(QuadForm(2, 0, -50), 100, bound=0)
