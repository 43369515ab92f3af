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

verify_certificate recomputes every claim from raw integers and trusts nothing. It runs
no continued fraction: unit norm +1 is derived from the structural gate and the evidence.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from typing import get_type_hints

from .arith import (
    DEFAULT_PRIME_SEARCH_CAP,
    ResidueClass,
    crt_merge,
    is_prime,
    jacobi,
    next_prime_in_class,
)
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    LiouwitError,
    SearchExhaustedError,
)
from .factor import squarefree_primes
from .forms import QuadForm
from .genus import assigned_characters, principal_genus_candidates
from .pell import GeneralizedSolution, principal_class_ambiguous, solve_generalized

# successive e2 re-rolls are coin-flip events for which ambiguous class is
# principal, so a small bound is already conservative
_MAX_E2_ATTEMPTS = 200

M_CLAUSES = (
    "primality_congruence",
    "symbol_table",
    "consequences",
    "lambda_flip",
    "unit_norm",
    "genus_uniqueness",
    "pell_evidence",
)

PAIR_CLAUSES = (
    "structure",
    "symbols",
    "unit_norm",
    "genus_uniqueness",
    "evidence",
)


@dataclass(frozen=True)
class SymbolTarget:
    """Required value of the symbol (top / constructed prime in bottom_slot).

    Entries with top = 2 are implied by the slot's residue class mod 8; they
    are verified after the fact but impose no search constraint.
    """

    top: int
    bottom_slot: str
    target: int
    implied: bool = False


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


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.clauses if not c.passed)

    def as_pairs(self) -> tuple[tuple[str, bool], ...]:
        return tuple((c.name, c.passed) for c in self.clauses)

    def summary(self) -> str:
        lines = [f"verification of {self.subject}:"]
        for c in self.clauses:
            mark = "pass" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail and not c.passed else ""
            lines.append(f"  {mark}  {c.name}{suffix}")
        return "\n".join(lines)


# Sign fields travel as JSON ints; every other integer as a decimal string.
_SIGN_FIELDS = frozenset({"t", "s", "lambda_d", "lambda_m", "eps"})

# field type -> (to JSON, from JSON); a dataclass-typed field (QuadForm,
# GeneralizedSolution) travels as an object of its own fields
_CODEC = {
    int: (str, int),
    tuple[int, ...]: (lambda v: [str(p) for p in v], lambda v: tuple(int(p) for p in v)),
    tuple[tuple[str, bool], ...]: (
        lambda v: [{"clause": n, "passed": ok} for n, ok in v],
        lambda v: tuple((str(c["clause"]), bool(c["passed"])) for c in v),
    ),
}


@lru_cache(maxsize=None)
def _wire_fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type, required) of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING) for f in fields(cls))


def _to_wire(value, typ, name: str = ""):
    if name in _SIGN_FIELDS:
        return value
    if typ in _CODEC:
        return _CODEC[typ][0](value)
    return {n: _to_wire(getattr(value, n), t, n) for n, t, _ in _wire_fields(typ)}


def _from_wire(data, typ):
    if typ in _CODEC:
        return _CODEC[typ][1](data)
    return typ(**{
        n: _from_wire(data[n], t)
        for n, t, required in _wire_fields(typ)
        if required or n in data
    })


class _Certificate:
    """The JSON codec shared by both certificate kinds."""

    kind = ""

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **_to_wire(self, type(self))}

    @classmethod
    def from_json_dict(cls, data: dict):
        try:
            return _from_wire(data, cls)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed certificate document: {exc}") from exc


@dataclass(frozen=True)
class MCertificate(_Certificate):
    """Constructed data for one (d, t) instance; fields are never trusted."""

    kind = "m_certificate"

    d: int
    d_primes: tuple[int, ...]
    t: int
    s: int
    lambda_d: int
    lambda_m: int
    m_primes: tuple[int, ...]
    e1: int
    e2: int
    M: int
    D: int
    predicted_form: QuadForm
    pell_evidence: GeneralizedSolution
    checks: tuple[tuple[str, bool], ...] = ()

    @property
    def identity(self) -> tuple[GeneralizedSolution, tuple[int, ...]]:
        """Evidence a x^2 - b y^2 = 1 and the primes of a*b = D."""
        return self.pell_evidence, self.d_primes + self.m_primes + (self.e1, self.e2)


@dataclass(frozen=True)
class PrimePairCertificate(_Certificate):
    """Constructed pair (e1, e2) for a prime p = 3 mod 4, with Pell evidence."""

    kind = "prime_pair_certificate"

    p: int
    e1: int
    e2: int
    m: int
    D: int
    predicted_form: QuadForm
    evidence: GeneralizedSolution
    checks: tuple[tuple[str, bool], ...] = ()

    @property
    def identity(self) -> tuple[GeneralizedSolution, tuple[int, ...]]:
        """Evidence a x^2 - b y^2 = 1 and the primes of a*b = D."""
        return self.evidence, (self.p, self.e1, self.e2)


def _split_sides(d: int, M: int, t: int) -> tuple[int, int]:
    """(a, b) of the predicted form (a, 0, -b) and its evidence a x^2 - b y^2 = 1."""
    return (M, d) if t == 1 else (d, M)


def ordered_prime_list(d: int) -> tuple[int, ...]:
    """Primes of square-free composite d: odd primes ascending, then 2 last."""
    primes = squarefree_primes(d)
    if len(primes) < 2:
        raise InvalidInputError(f"{d} is prime; the construction needs a composite")
    return primes[1:] + (2,) if primes[0] == 2 else primes


def mod8_class(slot: str, r: int, t: int) -> int:
    """Residue class mod 8 demanded of each constructed prime."""
    if slot == "e1":
        return 7
    if slot == "e2":
        return 3 * t % 8
    index = int(slot[1:])
    return 5 if index == r - 1 else 1


def symbol_targets(
    d_primes: tuple[int, ...], t: int, lambda_d: int
) -> tuple[SymbolTarget, ...]:
    """The full target matrix of symbols (p_j / slot) for one construction.

    Column m_i carries -1 at rows p_1 and p_{i+1} and +1 elsewhere; column e1
    carries lambda_d * s on every row but the last, which is +1; column e2
    carries t at row p_1, lambda_d * t on the middle rows, and -1 at row p_r.
    Rows with p_j = 2 are implied by the mod 8 classes and marked as such.
    """
    r = len(d_primes)
    if r < 2:
        raise InvalidInputError("need at least two primes")
    if len(set(d_primes)) != r:
        raise InvalidInputError(f"primes must be distinct: {d_primes}")
    if t not in (1, -1) or lambda_d not in (1, -1):
        raise InvalidInputError(f"t and lambda_d must be +-1, got ({t}, {lambda_d})")
    if lambda_d != (-1) ** r:
        raise InvalidInputError(f"lambda_d = {lambda_d} inconsistent with r = {r}")
    if lambda_d == -1 and t == 1:
        raise InvalidInputError("t = +1 is forbidden when lambda(d) = -1")
    if any(p == 2 for p in d_primes[:-1]):
        raise InvalidInputError("2 must be the last prime when present")
    s = -t
    targets = []
    for j, p in enumerate(d_primes, start=1):
        implied = p == 2
        for i in range(1, r):
            sign = -1 if j == 1 or j == i + 1 else 1
            targets.append(SymbolTarget(p, f"m{i}", sign, implied))
        targets.append(SymbolTarget(p, "e1", lambda_d * s if j < r else 1, implied))
        if j == 1:
            e2_sign = t
        elif j < r:
            e2_sign = lambda_d * t
        else:
            e2_sign = -1
        targets.append(SymbolTarget(p, "e2", e2_sign, implied))
    return tuple(targets)


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
        raise InvalidInputError(
            f"lambda({d}) = -1 forces t = -1; t = +1 is a contract violation"
        )
    s = -t
    targets = symbol_targets(d_primes, t, lambda_d)

    slots = [f"m{i}" for i in range(1, r)] + ["e1"]
    chosen: dict[str, int] = {}
    exclude = set(d_primes) | {2}
    for slot in slots:
        slot_targets = [
            tgt for tgt in targets if tgt.bottom_slot == slot and not tgt.implied
        ]
        # cross conditions against already fixed primes: (m_i / slot) = 1
        for other, prime in chosen.items():
            if other.startswith("m"):
                slot_targets.append(SymbolTarget(prime, slot, 1))
        constraint = residue_constraints(
            slot, mod8_class(slot, r, t), tuple(slot_targets), ()
        )
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
    e2_targets = [
        tgt for tgt in targets if tgt.bottom_slot == "e2" and not tgt.implied
    ]
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


def _run_clause(name: str, body) -> ClauseResult:
    try:
        outcome = body()
    except LiouwitError as exc:
        return ClauseResult(name, False, str(exc))
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        return ClauseResult(name, False, f"{type(exc).__name__}: {exc}")
    # a body may return (problems, note); the note survives a passing clause
    if isinstance(outcome, tuple):
        problems, note = outcome
    else:
        problems, note = outcome, ""
    if problems:
        return ClauseResult(name, False, "; ".join(problems))
    return ClauseResult(name, True, note)


# clause -> the clauses it rests on, by position in the clause list (0: the
# structural gate, -1: the evidence). While one fails, the clause fails as
# "depends on" it, unrun; a clause without a body then passes. genus_uniqueness
# scans the candidates of D, so it waits for the gate to tie D to the primes.
#
# unit_norm has no body: gate and evidence prove it. The gate shows a, b > 1
# coprime and square-free with ab = D, the evidence a x^2 - b y^2 = 1 with
# x, y >= 1. So the fundamental unit e of Z[sqrt(D)] has norm +1 (Nagell 1951;
# Perron, Kettenbrueche, section 26):
# 1. alpha = x sqrt(a) + y sqrt(b) has alpha^2 = (a x^2 + b y^2) + 2xy sqrt(D),
#    a unit of norm (a x^2 - b y^2)^2 = 1.
# 2. Were N(e) = -1, every unit of norm +1 above 1 would be e^(2j), so
#    alpha = e^j would lie in Q(sqrt(D)).
# 3. It does not: 1, sqrt(a), sqrt(b), sqrt(ab) are independent over Q, x != 0.
_RESTS_ON = {"unit_norm": (0, -1), "genus_uniqueness": (0,)}


def _run_clauses(subject: str, names: tuple[str, ...], bodies) -> VerificationReport:
    results = {name: _run_clause(name, bodies[name]) for name in names if name not in _RESTS_ON}
    for name, basis in _RESTS_ON.items():
        failed = [names[i] for i in basis if not results[names[i]].passed]
        if failed:
            results[name] = ClauseResult(name, False, f"depends on {failed[0]}")
        elif name in bodies:
            results[name] = _run_clause(name, bodies[name])
        else:
            results[name] = ClauseResult(name, True)
    return VerificationReport(subject, tuple(results[name] for name in names))


def _clause_genus(cert: MCertificate | PrimePairCertificate) -> tuple[list[str], str]:
    """The predicted form must be the only split candidate in the principal genus.

    Half candidates exist only for D = 3 mod 4 (never for a prime pair, whose
    D = p e1 e2 is 1 mod 4); principal-genus ones are recorded in the note.
    Every candidate's genus is read off one table of Legendre symbols among the
    primes of D (genus.principal_genus_candidates): no represented value is
    searched for. D is not factored: the gate has tied the certificate's
    distinct primes to D, so there are 2^k - 2 split candidates and, for
    D = 3 mod 4, 2^k half candidates.
    """
    D, primes, predicted = cert.D, cert.identity[1], cert.predicted_form
    system = assigned_characters(D, primes)
    split_passers, half_passers = principal_genus_candidates(system)
    problems = []
    if split_passers != [predicted]:
        problems.append(
            f"principal-genus split candidates "
            f"{[str(f) for f in split_passers]}, "
            f"expected exactly [{predicted}]"
        )
    k = len(primes)
    note = f"{2**k - 2} split and {2**k * (D % 4 == 3)} half candidates scanned"
    if half_passers:
        # pinned companions of the d t = 3 mod 4 regime; recorded, not failed
        note += (
            f"; principal-genus half candidates "
            f"{[str(f) for f in half_passers]}"
        )
    return problems, note


def _clause_evidence(ev: GeneralizedSolution, expected_ab: tuple[int, int]) -> list[str]:
    problems = []
    if (ev.a, ev.b) != expected_ab:
        problems.append(f"evidence solves ({ev.a}, {ev.b}), want {expected_ab}")
    if ev.eps != 1:
        problems.append(f"evidence eps = {ev.eps}, want 1")
    if ev.x < 1 or ev.y < 1:
        problems.append("evidence not positive")
    if ev.a * ev.x * ev.x - ev.b * ev.y * ev.y != ev.eps:
        problems.append("evidence fails the equation")
    return problems


def verify_certificate(cert: MCertificate) -> VerificationReport:
    """Re-derive every property of an MCertificate from scratch.

    d itself is never factored: every clause reads the stored d_primes, which
    primality_congruence checks are at least two distinct primes in canonical
    order with product d. Clauses, in order: primality and congruence classes;
    the symbol table with its cross conditions; the derived symbol
    consequences; the lambda flip; unit norm +1 for D, derived from
    primality_congruence and pell_evidence without a continued fraction;
    uniqueness of the predicted form among the ambiguous split candidates in
    the principal genus, each candidate's genus read off one table of Legendre
    symbols among the primes of D (half candidates are read too and any
    passers recorded in the clause note); and the Pell evidence arithmetic. A clause
    fails as "depends on X", unrun, while a clause X it rests on fails (_RESTS_ON).
    """

    def clause_primality() -> list[str]:
        if cert.d < 2:
            return [f"d = {cert.d} is not a positive integer >= 2"]
        # checking the stored primes is as strong as factoring d, since the
        # factorization is unique, and it costs no factoring of untrusted input
        d_primes = cert.d_primes
        problems = [f"{p} in d_primes is not prime" for p in d_primes if not is_prime(p)]
        canonical = tuple(sorted(p for p in d_primes if p != 2)) + (2,) * d_primes.count(2)
        if d_primes != canonical:
            problems.append(f"d_primes {d_primes} not odd primes ascending, then 2")
        if len(set(d_primes)) != len(d_primes) or len(d_primes) < 2:
            problems.append(f"d_primes {d_primes} are not at least two distinct primes")
        if math.prod(d_primes) != cert.d:
            problems.append(f"d = {cert.d} is not the product of d_primes {d_primes}")
        r = len(d_primes)
        if cert.t not in (1, -1):
            problems.append(f"t = {cert.t} not a sign")
            return problems
        if cert.s != -cert.t:
            problems.append(f"s = {cert.s} != -t")
        if (-1) ** r == -1 and cert.t == 1:
            problems.append("t = +1 despite lambda(d) = -1")
        constructed = cert.m_primes + (cert.e1, cert.e2)
        if len(cert.m_primes) != r - 1:
            problems.append(
                f"expected {r - 1} primes m_i, found {len(cert.m_primes)}"
            )
        if len(set(constructed)) != len(constructed):
            problems.append(f"constructed primes not distinct: {constructed}")
        for q in constructed:
            if q < 3 or q % 2 == 0 or not is_prime(q):
                problems.append(f"{q} is not an odd prime")
            if q in d_primes:
                problems.append(f"{q} divides d")
        for i, m_i in enumerate(cert.m_primes, start=1):
            want = 5 if i == r - 1 else 1
            if m_i % 8 != want:
                problems.append(f"m{i} = {m_i} is {m_i % 8} mod 8, want {want}")
        if cert.e1 % 8 != 7:
            problems.append(f"e1 = {cert.e1} is {cert.e1 % 8} mod 8, want 7")
        if cert.e2 % 8 != 3 * cert.t % 8:
            problems.append(
                f"e2 = {cert.e2} is {cert.e2 % 8} mod 8, want {3 * cert.t % 8}"
            )
        if cert.M != math.prod(constructed):
            problems.append(f"M = {cert.M} is not the product of {constructed}")
        if cert.D != cert.d * cert.M:
            problems.append(f"D = {cert.D} != d*M = {cert.d * cert.M}")
        a, b = _split_sides(cert.d, cert.M, cert.t)
        expected_form = QuadForm(a, 0, -b)
        if cert.predicted_form != expected_form:
            problems.append(
                f"predicted form {cert.predicted_form} != {expected_form}"
            )
        return problems

    def clause_symbols() -> list[str]:
        problems = []
        d_primes = cert.d_primes
        r = len(d_primes)
        slot_value = {f"m{i}": m for i, m in enumerate(cert.m_primes, start=1)}
        slot_value["e1"] = cert.e1
        slot_value["e2"] = cert.e2
        for tgt in symbol_targets(d_primes, cert.t, (-1) ** r):
            bottom = slot_value.get(tgt.bottom_slot)
            if bottom is None:
                problems.append(f"missing prime for slot {tgt.bottom_slot}")
                continue
            actual = jacobi(tgt.top, bottom)
            if actual != tgt.target:
                marker = " [implied]" if tgt.implied else ""
                problems.append(
                    f"({tgt.top}/{tgt.bottom_slot}={bottom}) = {actual}, "
                    f"want {tgt.target}{marker}"
                )
        for i, m_i in enumerate(cert.m_primes, start=1):
            for label, e in (("e1", cert.e1), ("e2", cert.e2)):
                if jacobi(m_i, e) != 1:
                    problems.append(f"(m{i}/{label}) != 1")
            for j, m_j in enumerate(cert.m_primes, start=1):
                if i != j and jacobi(m_i, m_j) != 1:
                    problems.append(f"(m{i}/m{j}) != 1")
        if jacobi(cert.e1, cert.e2) != cert.t:
            problems.append(f"(e1/e2) = {jacobi(cert.e1, cert.e2)}, want t = {cert.t}")
        if jacobi(cert.e2, cert.e1) != -1:
            problems.append(f"(e2/e1) = {jacobi(cert.e2, cert.e1)}, want -1")
        return problems

    def clause_consequences() -> list[str]:
        problems = []
        s = -cert.t
        for i, m_i in enumerate(cert.m_primes, start=1):
            if jacobi(cert.d, m_i) != 1:
                problems.append(f"(d/m{i}) != 1")
        for label, e in (("e1", cert.e1), ("e2", cert.e2)):
            if jacobi(cert.d, e) != s:
                problems.append(f"(d/{label}) = {jacobi(cert.d, e)}, want s = {s}")
        for p in cert.d_primes:
            if jacobi(p, cert.M) != 1:
                problems.append(f"({p}/M) = {jacobi(p, cert.M)}, want 1")
        return problems

    def clause_lambda() -> list[str]:
        problems = []
        # lambda(d) itself once primality_congruence has tied d_primes to d
        true_lambda_d = (-1) ** len(cert.d_primes)
        if cert.lambda_d != true_lambda_d:
            problems.append(
                f"lambda_d = {cert.lambda_d}, but the {len(cert.d_primes)} "
                f"d_primes give {true_lambda_d}"
            )
        constructed = cert.m_primes + (cert.e1, cert.e2)
        if cert.M != math.prod(constructed) or len(set(constructed)) != len(
            constructed
        ):
            problems.append("M is not a product of the distinct constructed primes")
        elif not all(is_prime(q) for q in constructed):
            problems.append("a constructed factor of M is composite")
        else:
            true_lambda_m = (-1) ** len(constructed)
            if cert.lambda_m != true_lambda_m:
                problems.append(
                    f"lambda_m = {cert.lambda_m}, but lambda(M) = {true_lambda_m}"
                )
            if true_lambda_m != -true_lambda_d:
                problems.append("lambda(M) fails to flip lambda(d)")
        return problems

    expected_ab = _split_sides(cert.d, cert.M, cert.t)
    bodies = {
        "primality_congruence": clause_primality,
        "symbol_table": clause_symbols,
        "consequences": clause_consequences,
        "lambda_flip": clause_lambda,
        "genus_uniqueness": lambda: _clause_genus(cert),
        "pell_evidence": lambda: _clause_evidence(cert.pell_evidence, expected_ab),
    }
    return _run_clauses("certificate", M_CLAUSES, bodies)


def verify_prime_pair(cert: PrimePairCertificate) -> VerificationReport:
    """Re-derive every property of a PrimePairCertificate from scratch.

    unit_norm is derived from structure and evidence without a continued
    fraction; a clause fails as "depends on X" while X fails (_RESTS_ON).
    """

    def clause_structure() -> list[str]:
        problems = []
        if not is_prime(cert.p) or cert.p % 4 != 3:
            problems.append(f"p = {cert.p} is not a prime 3 mod 4")
        if not is_prime(cert.e1) or cert.e1 % 4 != 3:
            problems.append(f"e1 = {cert.e1} is not a prime 3 mod 4")
        if not is_prime(cert.e2) or cert.e2 % 4 != 1:
            problems.append(f"e2 = {cert.e2} is not a prime 1 mod 4")
        if len({cert.p, cert.e1, cert.e2, 2}) != 4:
            problems.append("p, e1, e2 must be distinct odd primes")
        if cert.m != cert.e1 * cert.e2:
            problems.append(f"m = {cert.m} != e1*e2 = {cert.e1 * cert.e2}")
        if cert.D != cert.p * cert.m:
            problems.append(f"D = {cert.D} != p*m = {cert.p * cert.m}")
        if cert.predicted_form != QuadForm(cert.p, 0, -cert.m):
            problems.append(f"predicted form {cert.predicted_form} is not (p, 0, -m)")
        return problems

    def clause_symbols() -> list[str]:
        problems = []
        if jacobi(cert.p, cert.e1) != 1:
            problems.append("(p/e1) != 1")
        if jacobi(cert.p, cert.e2) != 1:
            problems.append("(p/e2) != 1")
        if jacobi(cert.e1, cert.e2) != -1:
            problems.append("(e1/e2) != -1")
        return problems

    bodies = {
        "structure": clause_structure,
        "symbols": clause_symbols,
        "genus_uniqueness": lambda: _clause_genus(cert),
        "evidence": lambda: _clause_evidence(cert.evidence, (cert.p, cert.m)),
    }
    return _run_clauses("prime pair", PAIR_CLAUSES, bodies)


# kind -> (certificate class, verifier). The verifiers are looked up by name
# when called, so a wrapper installed on the module-level name sees the call.
CERTIFICATE_KINDS = {
    MCertificate.kind: (MCertificate, lambda cert: verify_certificate(cert)),
    PrimePairCertificate.kind: (PrimePairCertificate, lambda cert: verify_prime_pair(cert)),
}


def with_checks(cert, report: VerificationReport):
    """Copy of a certificate carrying the report's clause outcomes."""
    return replace(cert, checks=report.as_pairs())
