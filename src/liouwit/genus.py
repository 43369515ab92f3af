"""Assigned characters of discriminant 4D and the principal-genus test."""

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

    def evaluate(self, m: int) -> tuple[int, ...]:
        """Values of every character at m, which must be coprime to 2D."""
        values = [jacobi(m, r) for r in self.odd_prime_moduli]
        if self.extra == EXTRA_DELTA:
            values.append(delta_char(m))
        elif self.extra == EXTRA_ETA:
            values.append(eta_char(m))
        elif self.extra == EXTRA_DELTA_ETA:
            values.append(delta_char(m) * eta_char(m))
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
