"""Unit tests for quadratic symbols, CRT merging, primality, and prime search."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liouwit import (
    ConstraintInfeasibleError,
    InvalidInputError,
    ResidueClass,
    SearchExhaustedError,
    crt_merge,
    delta_char,
    eta_char,
    integer_sqrt,
    is_prime,
    jacobi,
    next_prime_in_class,
)
from liouwit import arith
from liouwit.arith import is_prime_small


def test_jacobi_pinned_values():
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(2, 15) == 1
    assert jacobi(7, 15) == -1
    assert jacobi(5, 15) == 0
    assert jacobi(1, 1) == 1
    assert jacobi(0, 3) == 0
    assert jacobi(-1, 5) == 1
    assert jacobi(-1, 7) == -1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(InvalidInputError):
        jacobi(1, 4)
    with pytest.raises(InvalidInputError):
        jacobi(1, 0)
    with pytest.raises(InvalidInputError):
        jacobi(1, -3)


def test_jacobi_euler_criterion_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 101, 997):
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            e = e - p if e == p - 1 else e
            assert jacobi(a, p) == e


def test_jacobi_multiplicative_in_top():
    for n in (9, 15, 21, 35, 45):
        for a in range(1, 30):
            for b in range(1, 30):
                assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_reciprocity():
    for m in range(3, 100, 2):
        for n in range(3, 100, 2):
            if math.gcd(m, n) != 1:
                continue
            rhs = (-1) ** (((m - 1) // 2) * ((n - 1) // 2))
            assert jacobi(m, n) * jacobi(n, m) == rhs


def test_delta_eta_characters():
    assert [delta_char(m) for m in (1, 3, 5, 7, 9)] == [1, -1, 1, -1, 1]
    assert [eta_char(m) for m in (1, 3, 5, 7, 9, 15, 17)] == [1, -1, -1, 1, 1, 1, 1]
    assert delta_char(-3) == 1  # -3 = 1 mod 4
    with pytest.raises(InvalidInputError):
        delta_char(4)
    with pytest.raises(InvalidInputError):
        eta_char(0)


def test_residue_class_validation():
    cls = ResidueClass(2, 5)
    assert str(cls) == "2 mod 5"
    with pytest.raises(InvalidInputError):
        ResidueClass(5, 5)
    with pytest.raises(InvalidInputError):
        ResidueClass(-1, 5)
    with pytest.raises(InvalidInputError):
        ResidueClass(0, 0)


def test_crt_merge_pinned():
    merged = crt_merge([ResidueClass(2, 3), ResidueClass(3, 5)])
    assert merged == ResidueClass(8, 15)
    merged = crt_merge([ResidueClass(3, 8), ResidueClass(2, 3)])
    assert merged == ResidueClass(11, 24)
    single = crt_merge([ResidueClass(4, 7)])
    assert single == ResidueClass(4, 7)


def test_crt_merge_rejects_shared_factor_and_empty():
    with pytest.raises(ConstraintInfeasibleError):
        crt_merge([ResidueClass(1, 6), ResidueClass(3, 4)])
    with pytest.raises(InvalidInputError):
        crt_merge([])


def test_is_prime_matches_trial_division():
    for n in range(-2, 2000):
        assert is_prime(n) == is_prime_small(n), n


def test_is_prime_pseudoprime_traps():
    # Carmichael numbers and a base-2 strong pseudoprime
    for n in (561, 1105, 1729, 2047, 3215031751):
        assert not is_prime(n), n
    assert is_prime(10**9 + 7)
    assert is_prime(10**9 + 9)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_next_prime_in_class_basic():
    assert next_prime_in_class(ResidueClass(1, 8)) == 17
    assert next_prime_in_class(ResidueClass(1, 8), exclude={17}) == 41
    assert next_prime_in_class(ResidueClass(7, 8)) == 7
    assert next_prime_in_class(ResidueClass(2, 3)) == 2


def test_next_prime_in_class_filters():
    # smallest prime = 1 mod 4 that is a non-residue mod 5 (13 = 3 mod 5),
    # and a residue (29 = 4 mod 5; 5 itself has symbol 0)
    got = next_prime_in_class(ResidueClass(1, 4), filters=((5, -1),))
    assert got == 13
    assert next_prime_in_class(ResidueClass(1, 4), filters=((5, 1),)) == 29
    # two filters at once: (q / 5) = 1 and (q / 7) = -1
    assert next_prime_in_class(ResidueClass(1, 4), filters=((5, 1), (7, -1))) == 41


def test_symbol_filters_match_the_quadratic_residues(monkeypatch):
    # the primality test sees exactly the candidates that pass the filters;
    # scanning 2, ..., p + 1 covers every residue mod p (1 as p + 1)
    for p in range(3, 3000, 2):
        if not is_prime_small(p):
            continue
        squares = {x * x % p for x in range(1, p)}
        for want in (1, -1):
            passed = []
            monkeypatch.setattr(arith, "is_prime", lambda n: passed.append(n) and False)
            with pytest.raises(SearchExhaustedError):
                next_prime_in_class(ResidueClass(0, 1), cap=p + 1, filters=((p, want),))
            expected = [c for c in range(1, p) if (c in squares) == (want == 1)]
            assert sorted(c % p for c in passed) == expected, (p, want)


def test_next_prime_in_class_errors():
    with pytest.raises(SearchExhaustedError):
        next_prime_in_class(ResidueClass(1, 4), cap=4)
    with pytest.raises(ConstraintInfeasibleError):
        next_prime_in_class(ResidueClass(2, 4))


def test_integer_sqrt():
    assert integer_sqrt(0) == (0, True)
    assert integer_sqrt(1) == (1, True)
    assert integer_sqrt(2) == (1, False)
    assert integer_sqrt(144) == (12, True)
    assert integer_sqrt(10**40) == (10**20, True)
    assert integer_sqrt(10**40 + 1) == (10**20, False)
    with pytest.raises(InvalidInputError):
        integer_sqrt(-1)


def test_sqrt_mod_against_a_table_of_squares():
    # every prime below 1000 and every a: the least root of a square, and
    # InvalidInputError for every non-residue
    for p in (q for q in range(2, 1000) if is_prime_small(q)):
        least = {}
        for x in range(p):
            least.setdefault(x * x % p, x)
        for a in range(p):
            if a in least:
                assert arith.sqrt_mod(a, p) == least[a], (a, p)
                assert arith.sqrt_mod(a - p, p) == least[a], (a - p, p)
            else:
                with pytest.raises(InvalidInputError):
                    arith.sqrt_mod(a, p)


@pytest.mark.parametrize("modulus", [9, 25])
def test_sqrt_mod_ends_on_an_odd_square_modulus(modulus):
    # every Jacobi symbol mod an odd square is 0 or 1, so the search for a
    # non-residue never ends; a symbol 0 shows the modulus is not prime. A
    # child process with a timeout makes a regression fail instead of hang
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "from liouwit.arith import sqrt_mod\n"
        "from liouwit.errors import InvalidInputError\n"
        "try:\n"
        f"    sqrt_mod(1, {modulus})\n"
        "except InvalidInputError as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert run.stdout == f"{modulus} is not prime\n", run.stderr
