"""Assigned characters of discriminant 4D; the principal genus by value and by symbol table."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import delta_char, eta_char, jacobi
from .errors import InvalidInputError
from .factor import squarefree_primes
from .forms import QuadForm, represented_value_coprime

EXTRA_NONE = "none"
EXTRA_DELTA = "delta"
EXTRA_ETA = "eta"
EXTRA_DELTA_ETA = "delta_eta"


@dataclass(frozen=True)
class CharacterSystem:
    """The assigned characters of discriminant 4D, D square-free positive."""

    D: int
    odd_prime_moduli: tuple[int, ...]
    extra: str

    @property
    def labels(self) -> tuple[str, ...]:
        base = tuple(f"chi_{r}" for r in self.odd_prime_moduli)
        if self.extra == EXTRA_NONE:
            return base
        return base + (self.extra,)

    def extra_value(self, m: int) -> int:
        """The 2-adic character (1 if there is none) at odd m."""
        value = delta_char(m) if self.extra in (EXTRA_DELTA, EXTRA_DELTA_ETA) else 1
        return value * eta_char(m) if self.extra in (EXTRA_ETA, EXTRA_DELTA_ETA) else value

    def evaluate(self, m: int) -> tuple[int, ...]:
        """Values of every character at m, which must be coprime to 2D."""
        values = [jacobi(m, r) for r in self.odd_prime_moduli]
        if self.extra != EXTRA_NONE:
            values.append(self.extra_value(m))
        return tuple(values)


@dataclass(frozen=True)
class GenericValues:
    """Character values of a form at a represented value theta coprime to 2D."""

    values: tuple[int, ...]
    witness_theta: int
    witness_xy: tuple[int, int]

    @property
    def all_ones(self) -> bool:
        return all(v == 1 for v in self.values)


def assigned_characters(D: int, primes=None) -> CharacterSystem:
    """Character system for square-free D >= 2 per the discriminant's class mod 8.

    Given the distinct `primes` of D, trusted as they are, D is not factored.
    """
    primes = squarefree_primes(D) if primes is None else sorted(primes)
    odd_primes = tuple(p for p in primes if p != 2)
    if D % 4 == 1:
        extra = EXTRA_NONE
    elif D % 4 == 3:
        extra = EXTRA_DELTA
    elif D % 8 == 2:
        extra = EXTRA_ETA
    else:  # D = 6 mod 8; square-free D is never 0 mod 4
        extra = EXTRA_DELTA_ETA
    return CharacterSystem(D, odd_primes, extra)


def generic_values(f: QuadForm, sys: CharacterSystem) -> GenericValues:
    if f.discriminant != 4 * sys.D:
        raise InvalidInputError(
            f"form {f} has discriminant {f.discriminant}, expected {4 * sys.D}"
        )
    if not f.is_valid():
        raise InvalidInputError(f"form {f} is not primitive")
    theta, x, y = represented_value_coprime(f, sys.D)
    return GenericValues(sys.evaluate(theta), theta, (x, y))


def in_principal_genus(f: QuadForm) -> bool:
    """True iff every generic value of f is +1."""
    disc = f.discriminant
    if disc <= 0 or disc % 4 != 0:
        raise InvalidInputError(f"form {f} is outside the supported discriminants")
    sys = assigned_characters(disc // 4)
    return generic_values(f, sys).all_ones


def principal_genus_candidates(
    system: CharacterSystem,
) -> tuple[list[QuadForm], list[QuadForm]]:
    """The split and half candidates of 4D in the principal genus, ascending in a.

    The system's primes of D are trusted. Each assigned character is constant
    on the values a form represents prime to its modulus, of either sign (Cox,
    Primes of the Form x^2 + ny^2, section 3), so no value is searched for.
    Split (a, 0, -b): chi_r reads a if r | b, and -b, which times (a/r)^2 is
    -(D/r)(a/r), if r | a; e = delta, eta or delta eta reads the odd one of a,
    -b. So the characters of a = prod S XOR one row per q in S: chi_r bit (q/r),
    or (-(D/r) / r) if r = q; e bit e(q), or e(-D/2) if q = 2. Half (2a, 2a, c),
    c = (a - b)/2, D = 3 mod 4: 2a f = X^2 - D y^2 and 4c f = X^2 - 4D x^2 give
    chi_r = (2/r) chi_r(a, 0, -b); odd values are c mod 4, so delta = +1 iff
    a - b = 2 mod 8. A set bit is a character -1; k primes cost <= k^2 + k symbols.
    """
    D, odd = system.D, system.odd_prime_moduli
    extra_bit = 1 << len(odd)

    def row(q: int) -> int:
        bits = [jacobi(q if q != r else -(D // r), r) == -1 for r in odd]
        bits.append(system.extra_value(q if q != 2 else -(D // 2)) == -1)
        return sum(bit << i for i, bit in enumerate(bits))

    divisors = [(1, 0)]
    for q in odd + (2,) * (D % 2 == 0):
        q_row = row(q)
        divisors += [(a * q, mask ^ q_row) for a, mask in divisors]
    divisors.sort()
    split = [QuadForm(a, 0, -(D // a)) for a, mask in divisors if mask == 0 and 1 < a < D]
    if D % 4 != 3:
        return split, []
    twos = sum((jacobi(2, r) == -1) << i for i, r in enumerate(odd))
    return split, [
        QuadForm(2 * a, 2 * a, (a - D // a) // 2)
        for a, mask in divisors
        if mask % extra_bit == twos and (a - D // a) % 8 == 2
    ]
