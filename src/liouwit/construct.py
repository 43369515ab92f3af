"""Construction of the auxiliary integer M = m1...m_{r-1} e1 e2 with lambda(M) = -lambda(d).

Given square-free composite d with prime list p_1, ..., p_r (2 placed last when
d is even) and a sign t, primes are searched slot by slot so that a fixed table
of Legendre symbols (p_j / slot) holds, together with the cross conditions
(m_i / e_j) = 1, (m_i / m_j) = 1, (e1 / e2) = t and (e2 / e1) = -1.  The payoff
is a certificate asserting that (M, 0, -d) for t = 1, or (d, 0, -M) for t = -1,
is the unique ambiguous split form of discriminant 4dM in the principal genus,
witnessed by a solution of the corresponding Pell-type equation.  When
dM = 3 mod 4, two half-family candidates built on the split of d that isolates
its last prime also land in the principal genus; their characters are pinned
by the same residue system, so they are recorded rather than excluded, and the
certificate's equation is made solvable by advancing e2 until the principal
class lands on the predicted split.

The certificate records and their verifier live in verify, which trusts nothing built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    DEFAULT_PRIME_SEARCH_CAP,
    ResidueClass,
    crt_merge,
    is_prime,
    next_prime_in_class,
)
from .errors import InternalInvariantError, InvalidInputError, SearchExhaustedError
from .factor import squarefree_primes
from .pell import principal_class_ambiguous, solve_generalized
from .verify import (
    MCertificate,
    PrimePairCertificate,
    QuadForm,
    SymbolTarget,
    _split_sides,
    mod8_class,
    symbol_targets,
)

# successive e2 re-rolls are coin-flip events for which ambiguous class is
# principal, so a small bound is already conservative
_MAX_E2_ATTEMPTS = 200


@dataclass(frozen=True)
class ResidueConstraint:
    """Search space for one slot: a hard residue class plus symbol filters.

    Conditions that pin a unique residue (modulus 8, and any symbol condition
    modulo 3) are CRT-merged into `hard`; every other condition stays a
    filter (p, want) on the Legendre symbol (q / p) of the candidate q, so the
    prime search stays minimal over the whole constraint system rather than
    over one arbitrary representative.
    """

    slot: str
    hard: ResidueClass
    filters: tuple[tuple[int, int], ...]


def ordered_prime_list(d: int) -> tuple[int, ...]:
    """Primes of square-free composite d: odd primes ascending, then 2 last."""
    primes = squarefree_primes(d)
    if len(primes) < 2:
        raise InvalidInputError(f"{d} is prime; the construction needs a composite")
    return primes[1:] + (2,) if primes[0] == 2 else primes


def residue_constraints(
    slot: str,
    mod8: int,
    targets: tuple[SymbolTarget, ...],
    direct_conditions: tuple[tuple[int, int], ...] = (),
) -> ResidueConstraint:
    """Merge one slot's symbol conditions into a hard class plus filters.

    `targets` carry conditions (top / slot) = target with fixed odd-prime top;
    `direct_conditions` carry conditions jacobi(slot, modulus) = want used when
    the slot sits on top (only (e2 / e1) = -1 arises this way).
    """
    conditions = list(direct_conditions)
    for tgt in targets:
        if tgt.implied:
            continue
        if tgt.bottom_slot != slot:
            raise InternalInvariantError(f"target {tgt} does not belong to {slot}")
        # quadratic reciprocity turns (top / q) = target into a condition on
        # the candidate prime q, whose class mod 4 is pinned: the symbols
        # (top / q), (q / top) differ exactly when top and q are both 3 mod 4
        flip = -1 if (tgt.top % 4 == 3 and mod8 % 4 == 3) else 1
        conditions.append((tgt.top, tgt.target * flip))
    classes = [ResidueClass(mod8 % 8, 8)]
    filters: list[tuple[int, int]] = []
    for modulus, want in sorted(conditions):
        if modulus < 3 or modulus % 2 == 0:
            raise InternalInvariantError(f"constraint tops must be odd primes, got {modulus}")
        if modulus == 3:  # the only symbol with one residue per sign: 1 or 2
            classes.append(ResidueClass(want % 3, 3))
        else:
            filters.append((modulus, want))
    return ResidueConstraint(slot, crt_merge(classes), tuple(filters))


@lru_cache(maxsize=256)
def construct_M(
    d: int, t: int, cap: int = DEFAULT_PRIME_SEARCH_CAP
) -> MCertificate:
    """Build the certificate for square-free composite d > 1 and a sign t.

    Slots are filled in the fixed order m1, ..., m_{r-1}, e1, e2; each prime is
    the least one in its residue class satisfying all filters and avoiding the
    primes of d and all previously chosen primes.  The result is deterministic,
    so repeated calls are served from a cache.
    """
    if t not in (1, -1):
        raise InvalidInputError(f"t must be +1 or -1, got {t}")
    d_primes = ordered_prime_list(d)
    r = len(d_primes)
    lambda_d = (-1) ** r
    if lambda_d == -1 and t == 1:
        raise InvalidInputError(f"lambda({d}) = -1 forces t = -1; t = +1 is a contract violation")
    s = -t
    targets = symbol_targets(d_primes, t, lambda_d)

    slots = [f"m{i}" for i in range(1, r)] + ["e1"]
    chosen: dict[str, int] = {}
    exclude = set(d_primes) | {2}
    for slot in slots:
        slot_targets = [tgt for tgt in targets if tgt.bottom_slot == slot and not tgt.implied]
        # cross conditions against already fixed primes: (m_i / slot) = 1
        for other, prime in chosen.items():
            if other.startswith("m"):
                slot_targets.append(SymbolTarget(prime, slot, 1))
        constraint = residue_constraints(slot, mod8_class(slot, r, t), tuple(slot_targets), ())
        prime = next_prime_in_class(
            constraint.hard,
            exclude=frozenset(exclude),
            cap=cap,
            filters=constraint.filters,
        )
        chosen[slot] = prime
        exclude.add(prime)

    m_primes = tuple(chosen[f"m{i}"] for i in range(1, r))
    e1 = chosen["e1"]
    lambda_m = (-1) ** (len(m_primes) + 2)
    if lambda_m != -lambda_d:
        raise InternalInvariantError(f"lambda(M) = {lambda_m} fails to flip lambda(d)")

    # The residue system pins every genus character, but not which ambiguous
    # class is principal; when d t = 3 mod 4 the principal class can land on a
    # half form instead of the predicted split, leaving the predicted Pell
    # equation insoluble. Successive admissible e2 re-roll that assignment, so
    # scan e2 until the predicted equation has a solution.
    e2_targets = [tgt for tgt in targets if tgt.bottom_slot == "e2" and not tgt.implied]
    for prime in m_primes:
        e2_targets.append(SymbolTarget(prime, "e2", 1))
    e2_constraint = residue_constraints(
        "e2", mod8_class("e2", r, t), tuple(e2_targets), ((e1, -1),)
    )
    evidence = None
    for _ in range(_MAX_E2_ATTEMPTS):
        e2 = next_prime_in_class(
            e2_constraint.hard,
            exclude=frozenset(exclude),
            cap=cap,
            filters=e2_constraint.filters,
        )
        exclude.add(e2)
        M = math.prod(m_primes) * e1 * e2
        D = d * M
        a, b = _split_sides(d, M, t)
        predicted = QuadForm(a, 0, -b)
        evidence = solve_generalized(a, b, 1)
        if evidence is not None:
            break
        if d % 2 == 0 or (d * t) % 4 != 3:
            raise InternalInvariantError(
                f"no solution of the predicted Pell equation for d={d}, t={t}, "
                f"M={M}; outside the half-form regime the construction is unsound"
            )
    if evidence is None:
        raise SearchExhaustedError(
            f"no admissible e2 gave a solvable predicted Pell equation for "
            f"d={d}, t={t} within {_MAX_E2_ATTEMPTS} attempts"
        )
    return MCertificate(
        d=d,
        d_primes=d_primes,
        t=t,
        s=s,
        lambda_d=lambda_d,
        lambda_m=lambda_m,
        m_primes=m_primes,
        e1=e1,
        e2=e2,
        M=M,
        D=D,
        predicted_form=predicted,
        pell_evidence=evidence,
    )


@lru_cache(maxsize=256)
def construct_prime_pair(
    p: int, cap: int = DEFAULT_PRIME_SEARCH_CAP
) -> PrimePairCertificate:
    """Build the pair (e1, e2) for prime p = 3 mod 4 and its Pell evidence.

    e1 = 3 (mod 4) is the least prime with (p / e1) = 1; e2 = 1 (mod 4) is the
    least prime with (p / e2) = 1 and (e1 / e2) = -1. The ambiguous-candidate
    scan over D = p e1 e2 must then select (p, 0, -e1 e2) and a solution of
    p k^2 - e1 e2 y^2 = 1.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if p % 4 != 3:
        raise InvalidInputError(f"p must be 3 mod 4, got {p} = {p % 4} mod 4")
    # (p/e1) = 1 with p, e1 both 3 mod 4 flips to (e1/p) = -1
    e1 = next_prime_in_class(
        ResidueClass(3, 4),
        exclude=frozenset({p}),
        cap=cap,
        filters=((p, -1),),
    )
    # (p/e2) = 1 with e2 = 1 mod 4 stays (e2/p) = 1; (e1/e2) = -1 stays
    # (e2/e1) = -1 for the same reason
    e2 = next_prime_in_class(
        ResidueClass(1, 4),
        exclude=frozenset({p, e1}),
        cap=cap,
        filters=((p, 1), (e1, -1)),
    )
    m = e1 * e2
    D = p * m
    predicted = QuadForm(p, 0, -m)
    scan = principal_class_ambiguous(D)
    if scan is None:
        raise InternalInvariantError(f"unit norm -1 for D={D} contradicts e1 | D")
    form, solution = scan
    if form != predicted or solution.eps != 1:
        raise InternalInvariantError(
            f"principal candidate for D={D} is {form} with eps={solution.eps}, "
            f"expected {predicted} with eps=1"
        )
    return PrimePairCertificate(
        p=p, e1=e1, e2=e2, m=m, D=D, predicted_form=predicted, evidence=solution
    )
