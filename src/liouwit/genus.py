"""Assigned characters of 4D and the principal genus by a represented value.

The symbol-table reading of the principal genus lives in verify.principal_genus_candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .factor import squarefree_primes
from .forms import represented_value_coprime
from .verify import CharacterSystem, QuadForm, character_system


@dataclass(frozen=True)
class GenericValues:
    """Character values of a form at a represented value theta coprime to 2D."""

    values: tuple[int, ...]
    witness_theta: int
    witness_xy: tuple[int, int]

    @property
    def all_ones(self) -> bool:
        return all(v == 1 for v in self.values)


def assigned_characters(D: int) -> CharacterSystem:
    """Character system for square-free D >= 2 per the discriminant's class mod 8."""
    return character_system(D, squarefree_primes(D))


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
