"""Unit tests for assigned characters and the principal-genus test."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liouwit import (
    InvalidInputError,
    QuadForm,
    assigned_characters,
    delta_char,
    enumerate_ambiguous_candidates,
    eta_char,
    generic_values,
    in_principal_genus,
    jacobi,
)
from liouwit.factor import squarefree_primes
from liouwit.verify import character_system, principal_genus_candidates


def test_assigned_characters_by_residue_class():
    sys5 = assigned_characters(5)  # 1 mod 4: no extra character
    assert sys5.odd_prime_moduli == (5,)
    assert sys5.labels == ("chi_5",)

    sys15 = assigned_characters(15)  # 3 mod 4: delta
    assert sys15.odd_prime_moduli == (3, 5)
    assert sys15.labels == ("chi_3", "chi_5", "delta")

    sys10 = assigned_characters(10)  # 2 mod 8: eta
    assert sys10.odd_prime_moduli == (5,)
    assert sys10.labels == ("chi_5", "eta")

    sys6 = assigned_characters(6)  # 6 mod 8: delta * eta
    assert sys6.odd_prime_moduli == (3,)
    assert sys6.labels == ("chi_3", "delta_eta")


def test_assigned_characters_rejects_bad_d():
    with pytest.raises(InvalidInputError):
        assigned_characters(1)
    with pytest.raises(InvalidInputError):
        assigned_characters(12)


def test_evaluate_matches_component_characters():
    sys6 = assigned_characters(6)
    for m in (1, 5, 7, 11, 13, 25, 35):
        expected = (jacobi(m, 3), delta_char(m) * eta_char(m))
        assert sys6.evaluate(m) == expected
    sys15 = assigned_characters(15)
    for m in (1, 7, 11, 13, 77):
        expected = (jacobi(m, 3), jacobi(m, 5), delta_char(m))
        assert sys15.evaluate(m) == expected


def test_generic_values_pinned_d6():
    sys6 = assigned_characters(6)
    principal = generic_values(QuadForm(1, 0, -6), sys6)
    assert principal.witness_theta == 1
    assert principal.values == (1, 1)
    assert principal.all_ones

    other = generic_values(QuadForm(2, 0, -3), sys6)
    assert other.witness_theta == 5
    assert other.values == (-1, -1)
    assert not other.all_ones

    # the ambiguous class representing 1 for D = 6
    assert generic_values(QuadForm(3, 0, -2), sys6).all_ones


def test_generic_values_discriminant_mismatch():
    with pytest.raises(InvalidInputError):
        generic_values(QuadForm(1, 0, -5), assigned_characters(6))


def test_in_principal_genus_d6():
    assert in_principal_genus(QuadForm(1, 0, -6))
    assert in_principal_genus(QuadForm(3, 0, -2))
    assert not in_principal_genus(QuadForm(2, 0, -3))


def test_in_principal_genus_is_class_invariant_on_candidates():
    # equivalent representatives must agree; spot-check via the identity
    # (a, 0, -b) ~ (-b, 0, a) composed with sign conventions is out of scope,
    # so instead check stability of the principal form under its own theta
    for D in (6, 10, 15, 21):
        assert in_principal_genus(QuadForm(1, 0, -D))


def test_in_principal_genus_rejects_unsupported():
    with pytest.raises(InvalidInputError):
        in_principal_genus(QuadForm(1, 1, -1))  # odd discriminant
    with pytest.raises(InvalidInputError):
        in_principal_genus(QuadForm(1, 0, 1))  # negative discriminant
    with pytest.raises(InvalidInputError):
        in_principal_genus(QuadForm(2, 2, -2))  # imprimitive: every value even


def test_principal_genus_candidates_d15():
    # for D = 15 exactly one ambiguous candidate (the half form on the
    # divisor pair 5 * 3) has all-ones generic values, and it is the one
    # that represents 2 via 5 x^2 - 3 y^2 = 2
    cands = enumerate_ambiguous_candidates(15)
    values = {
        str(f): generic_values(f, assigned_characters(15)).values
        for f in cands.split_forms + cands.half_forms
    }
    assert values == {
        "(3, 0, -5)": (1, -1, -1),
        "(5, 0, -3)": (-1, -1, 1),
        "(2, 2, -7)": (-1, -1, 1),
        "(6, 6, -1)": (-1, 1, -1),
        "(10, 10, 1)": (1, 1, 1),
        "(30, 30, 7)": (1, -1, -1),
    }
    passers = [f for f in cands.split_forms + cands.half_forms if in_principal_genus(f)]
    assert passers == [QuadForm(10, 10, 1)]


def principal_by_search(D, primes):
    # the oracle: every candidate's characters at a represented value
    system = character_system(D, primes)
    candidates = enumerate_ambiguous_candidates(D)
    return tuple(
        [f for f in forms if generic_values(f, system).all_ones]
        for forms in (candidates.split_forms, candidates.half_forms)
    )


def test_principal_genus_candidates_match_generic_values():
    odd_to_23 = math.prod((3, 5, 7, 11, 13, 17, 19, 23))
    cases = [
        (D, squarefree_primes(D))
        for D in range(2, 3000)
        if all(D % (p * p) for p in range(2, math.isqrt(D) + 1))
    ]
    cases += [(D, squarefree_primes(D)) for D in (odd_to_23, 2 * odd_to_23)]
    assert len(cases) == 1825
    for D, primes in cases:
        got = principal_genus_candidates(character_system(D, primes))
        assert got == principal_by_search(D, primes), D


ODD_PRIMES = [p for p in range(3, 400) if all(p % f for f in range(2, math.isqrt(p) + 1))]


@st.composite
def prime_sets(draw):
    # up to 9 distinct primes whose product lies in the wanted class mod 8
    # (1 and 5 share the character system, so 1 stands for both)
    wanted = draw(st.sampled_from((1, 3, 2, 6)))
    even = wanted % 2 == 0
    odd = draw(st.sets(st.sampled_from(ODD_PRIMES), min_size=1, max_size=9 - even))
    primes = sorted(odd) + [2] * even
    D = math.prod(primes)
    assume(D % 8 == wanted if even else D % 4 == wanted)
    return D, primes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(prime_sets())
def test_principal_genus_candidates_property(case):
    D, primes = case
    assert principal_genus_candidates(character_system(D, primes)) == (
        principal_by_search(D, primes)
    )
