"""The certificate verifier: wire records, JSON codec, clauses and the document check.

A certificate (M or the pair e1, e2, the ambiguous form it forces into the principal
genus, a Pell identity) is re-checked from raw integers, trusting nothing. Only arith
and errors are imported, so a check loads none of the code that built the certificate.
No clause runs a continued fraction or factors anything (_RESTS_ON, _clause_genus).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache, lru_cache
from typing import get_type_hints

from .arith import delta_char, eta_char, integer_sqrt, is_prime, jacobi
from .errors import InvalidInputError, LiouwitError

M_CLAUSES = (
    "primality_congruence", "symbol_table", "consequences", "lambda_flip", "unit_norm",
    "genus_uniqueness", "pell_evidence",
)
PAIR_CLAUSES = ("structure", "symbols", "unit_norm", "genus_uniqueness", "evidence")


@dataclass(frozen=True)
class QuadForm:
    """The form (a, b, c) acting as f(x, y) = a x^2 + b x y + c y^2.

    Operations in this package assume a primitive form (gcd(a, b, c) = 1)
    whose discriminant b^2 - 4ac is not a perfect square; use is_valid to
    check untrusted triples.
    """

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_valid(self) -> bool:
        disc = self.discriminant
        return math.gcd(self.a, self.b, self.c) == 1 and not (disc >= 0 and integer_sqrt(disc)[1])

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class GeneralizedSolution:
    """Positive (x, y) with a x^2 - b y^2 = eps; xy is odd whenever |eps| = 2."""

    a: int
    b: int
    eps: int
    x: int
    y: int

    def check(self) -> bool:
        ok = self.a * self.x * self.x - self.b * self.y * self.y == self.eps
        if abs(self.eps) == 2:
            ok = ok and self.x * self.y % 2 == 1
        return ok and self.x > 0 and self.y > 0


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


def _typed(value, kind: type):
    """value, if its JSON type is `kind`: an int field rejects a bool."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _int_from_wire(text) -> int:
    # an optional "-" and ASCII digits; ROADMAP item 1's "0x..." form, for
    # integers past the int-to-str limit, will widen this rule
    digits = _typed(text, str).removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"an integer field must be a decimal string, got {text!r}")
    return int(text)


# field type -> (to JSON, from JSON); a dataclass-typed field (QuadForm,
# GeneralizedSolution) travels as an object of its own fields
_CODEC = {
    int: (str, _int_from_wire),
    tuple[int, ...]: (
        lambda v: [str(p) for p in v],
        lambda v: tuple(map(_int_from_wire, _typed(v, list))),
    ),
    tuple[tuple[str, bool], ...]: (
        lambda v: [{"clause": n, "passed": ok} for n, ok in v],
        lambda v: tuple((str(c["clause"]), _typed(c["passed"], bool)) for c in _typed(v, list)),
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


def _from_wire(data, typ, name: str = ""):
    if name in _SIGN_FIELDS:
        return _typed(data, int)
    if typ in _CODEC:
        return _CODEC[typ][1](data)
    return typ(**{
        n: _from_wire(data[n], t, n)
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

    @property
    def slots(self) -> dict[str, int]:
        """The constructed primes by slot, in the order m1, ..., m_{r-1}, e1, e2."""
        named = {f"m{i}": m for i, m in enumerate(self.m_primes, start=1)}
        return {**named, "e1": self.e1, "e2": self.e2}


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


def mod8_class(slot: str, r: int, t: int) -> int:
    """Residue class mod 8 demanded of each constructed prime."""
    if slot in ("e1", "e2"):
        return 7 if slot == "e1" else 3 * t % 8
    return 5 if int(slot[1:]) == r - 1 else 1


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
        e2_sign = t if j == 1 else lambda_d * t if j < r else -1
        targets.append(SymbolTarget(p, "e2", e2_sign, implied))
    return tuple(targets)


def slot_symbols(r: int, t: int) -> tuple[tuple[str, str, int], ...]:
    """(top slot, bottom slot, want) of each symbol between the constructed primes.

    construct_M searches against it and symbol_table checks it, in this order:
    (m_i/e1) = (m_i/e2) = 1 and (m_i/m_j) = 1 for each j != i, then (e1/e2) = t, (e2/e1) = -1.
    """
    m_slots = [f"m{i}" for i in range(1, r)]
    table = [(m, other, 1) for m in m_slots for other in ("e1", "e2", *m_slots) if other != m]
    return (*table, ("e1", "e2", t), ("e2", "e1", -1))


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
        return base + (self.extra,) * (self.extra != EXTRA_NONE)

    def extra_value(self, m: int) -> int:
        """The 2-adic character (1 if there is none) at odd m."""
        value = delta_char(m) if self.extra in (EXTRA_DELTA, EXTRA_DELTA_ETA) else 1
        return value * eta_char(m) if self.extra in (EXTRA_ETA, EXTRA_DELTA_ETA) else value

    def evaluate(self, m: int) -> tuple[int, ...]:
        """Values of every character at m, which must be coprime to 2D."""
        values = tuple(jacobi(m, r) for r in self.odd_prime_moduli)
        return values + (self.extra_value(m),) * (self.extra != EXTRA_NONE)


def character_system(D: int, primes) -> CharacterSystem:
    """The assigned characters of 4D, square-free D >= 2, its distinct `primes` trusted."""
    odd_primes = tuple(p for p in sorted(primes) if p != 2)
    # the rest is 6 mod 8: square-free D is never 0 mod 4
    extra = {1: EXTRA_NONE, 5: EXTRA_NONE, 3: EXTRA_DELTA, 7: EXTRA_DELTA, 2: EXTRA_ETA}
    return CharacterSystem(D, odd_primes, extra.get(D % 8, EXTRA_DELTA_ETA))


def _genus_kernel(system: CharacterSystem) -> tuple[tuple[int, ...], list[int], int | None]:
    """(primes, basis, half): a set S of primes is a bit mask over `primes`; `basis` spans
    the kernel K of S whose rows XOR to 0, and `half` is one S whose rows XOR to a half
    candidate's target, or None. GF(2) elimination with one pivot per leading bit.
    """
    D, odd = system.D, system.odd_prime_moduli
    primes = odd + (2,) * (D % 2 == 0)

    def row(q: int) -> int:
        bits = [jacobi(q if q != r else -(D // r), r) == -1 for r in odd]
        bits.append(system.extra_value(q if q != 2 else -(D // 2)) == -1)
        return sum(bit << i for i, bit in enumerate(bits))

    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, S)

    def reduce(v: int, subset: int) -> tuple[int, int]:
        while v and v.bit_length() - 1 in pivots:
            pivot, pivot_subset = pivots[v.bit_length() - 1]
            v, subset = v ^ pivot, subset ^ pivot_subset
        return v, subset

    basis = []
    for i, q in enumerate(primes):
        v, subset = reduce(row(q), 1 << i)
        if v:
            pivots[v.bit_length() - 1] = (v, subset)
        else:
            basis.append(subset)
    if D % 4 != 3:
        return primes, basis, None
    # a - D/a = 2 mod 8 iff a = (1 - D)/2 mod 4, which fixes the delta bit
    twos = sum((jacobi(2, r) == -1) << i for i, r in enumerate(odd))
    v, half = reduce(twos | ((1 - D) // 2 % 4 == 3) << len(odd), 0)
    return primes, basis, None if v else half


def _principal_forms(D: int, primes, basis, half) -> tuple[list[QuadForm], list[QuadForm]]:
    """Split forms of K but a = 1 and a = D, and half forms of the coset half + K."""
    kernel = [0]
    for subset in basis:
        kernel += [s ^ subset for s in kernel]

    def divisors(offset: int) -> list[int]:
        subsets = (s ^ offset for s in kernel)
        return sorted(math.prod(p for i, p in enumerate(primes) if s >> i & 1) for s in subsets)

    split = [QuadForm(a, 0, -(D // a)) for a in divisors(0) if 1 < a < D]
    if half is None:
        return split, []
    return split, [QuadForm(2 * a, 2 * a, (a - D // a) // 2) for a in divisors(half)]


def principal_genus_candidates(system: CharacterSystem) -> tuple[list[QuadForm], list[QuadForm]]:
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
    So the split passers are the GF(2) kernel K of the rows less a = 1 and a = D,
    and the half passers a coset of K: 2^dim(K) forms are built, not 2^k.
    """
    return _principal_forms(system.D, *_genus_kernel(system))


def _run_clause(name: str, body) -> ClauseResult:
    try:
        outcome = body()
    except LiouwitError as exc:
        return ClauseResult(name, False, str(exc))
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        return ClauseResult(name, False, f"{type(exc).__name__}: {exc}")
    # a body may return (problems, note); the note survives a passing clause
    problems, note = outcome if isinstance(outcome, tuple) else (outcome, "")
    if problems:
        return ClauseResult(name, False, "; ".join(problems))
    return ClauseResult(name, True, note)


# clause -> the clauses it rests on: a position in the clause list (0: the
# structural gate, -1: the evidence) or a name. While one fails, the clause
# fails as "depends on" it, unrun; a clause without a body then passes. The
# gate alone proves structure, and every clause but the evidence rests on it.
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
#
# consequences has no body: gate and symbol table prove (d/m_i) = 1, (d/e) = s
# and (p/M) = 1. The symbol is multiplicative in both arguments, so each is the
# product of one column or row of symbol_targets. With lambda_d = (-1)^r, s = -t
# and t = -1 for odd r: column m_i holds two -1 entries; column e1 gives
# (lambda_d s)^(r-1) = s, column e2 t (lambda_d t)^(r-2) (-1) = s; row p_1 gives
# (-1)^(r-1) lambda_d s t = 1, a middle row -lambda_d^2 s t = 1, and row p_r
# holds two -1 entries.
_RESTS_ON = {
    "symbol_table": (0,), "symbols": (0,), "lambda_flip": (0,), "genus_uniqueness": (0,),
    "consequences": (0, "symbol_table"), "unit_norm": (0, -1),
}


def _run_clauses(subject: str, names: tuple[str, ...], bodies) -> VerificationReport:
    @cache
    def result(name: str) -> ClauseResult:
        basis = (names[b] if isinstance(b, int) else b for b in _RESTS_ON.get(name, ()))
        failed = [b for b in basis if not result(b).passed]
        if failed:
            return ClauseResult(name, False, f"depends on {failed[0]}")
        if name in bodies:
            return _run_clause(name, bodies[name])
        return ClauseResult(name, True)

    return VerificationReport(subject, tuple(result(name) for name in names))


def _clause_genus(cert: MCertificate | PrimePairCertificate) -> tuple[list[str], str]:
    """The predicted form must be the only split candidate in the principal genus.

    Half candidates exist only for D = 3 mod 4 (never for a prime pair, whose
    D = p e1 e2 is 1 mod 4); principal-genus ones are recorded in the note. The
    gate has tied the certificate's k distinct primes to D, so D is not factored,
    and principal_genus_candidates reads the genus of all 2^k - 2 split (and 2^k
    half) candidates off their table of symbols. The predicted (a, 0, -b) is the
    only split passer iff the table's kernel is {no prime, the primes of a}: a
    kernel of dimension 2 or more fails with a count, and no candidate is built.
    """
    D, primes, predicted = cert.D, cert.identity[1], cert.predicted_form
    system = character_system(D, primes)
    kernel = _genus_kernel(system)
    if (dim := len(kernel[1])) > 1:
        # (D, 0, -1) represents -1, so the full set is in K iff every character is +1 at -1
        count = 2**dim - 1 - all(v == 1 for v in system.evaluate(-1))
        return [f"{count} principal-genus split candidates, expected exactly [{predicted}]"], ""
    split_passers, half_passers = _principal_forms(D, *kernel)
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
        note += f"; principal-genus half candidates {[str(f) for f in half_passers]}"
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
    order with product d. That gate alone proves structure, and runs is_prime
    only once its cheap checks hold. Clauses, in order: primality and congruence
    classes; the symbol tables symbol_targets and slot_symbols; the consequences,
    derived from the gate and the table; the stored signs lambda_d and lambda_m;
    unit norm +1 for D, derived from the gate and pell_evidence; uniqueness of
    the predicted form among the split candidates in the principal genus
    (_clause_genus); and the Pell evidence arithmetic. Every clause but the gate
    and the evidence rests on the gate, and fails as "depends on X", unrun,
    while a clause X it rests on fails (_RESTS_ON).
    """

    def clause_primality() -> list[str]:
        if cert.d < 2:
            return [f"d = {cert.d} is not a positive integer >= 2"]
        # checking the stored primes is as strong as factoring d, since the
        # factorization is unique, and it costs no factoring of untrusted input;
        # is_prime, the one costly test, runs only once every cheap check holds
        d_primes, problems = cert.d_primes, []
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
            problems.append(f"expected {r - 1} primes m_i, found {len(cert.m_primes)}")
        if len(set(constructed)) != len(constructed):
            problems.append(f"constructed primes not distinct: {constructed}")
        for q in constructed:
            if q < 3 or q % 2 == 0:
                problems.append(f"{q} is not an odd prime")
            if q in d_primes:
                problems.append(f"{q} divides d")
        for slot, q in cert.slots.items():
            want = mod8_class(slot, r, cert.t)  # the class the constructor searched
            if q % 8 != want:
                problems.append(f"{slot} = {q} is {q % 8} mod 8, want {want}")
        if cert.M != math.prod(constructed):
            problems.append(f"M = {cert.M} is not the product of {constructed}")
        if cert.D != cert.d * cert.M:
            problems.append(f"D = {cert.D} != d*M = {cert.d * cert.M}")
        a, b = _split_sides(cert.d, cert.M, cert.t)
        expected_form = QuadForm(a, 0, -b)
        if cert.predicted_form != expected_form:
            problems.append(f"predicted form {cert.predicted_form} != {expected_form}")
        if not problems:
            problems += [f"{p} in d_primes is not prime" for p in d_primes if not is_prime(p)]
            problems += [f"{q} is not an odd prime" for q in constructed if not is_prime(q)]
        return problems

    def clause_symbols() -> list[str]:
        problems, slot_value = [], cert.slots
        for tgt in symbol_targets(cert.d_primes, cert.t, (-1) ** len(cert.d_primes)):
            bottom = slot_value[tgt.bottom_slot]
            actual = jacobi(tgt.top, bottom)
            if actual != tgt.target:
                marker = " [implied]" if tgt.implied else ""
                problems.append(
                    f"({tgt.top}/{tgt.bottom_slot}={bottom}) = {actual}, "
                    f"want {tgt.target}{marker}"
                )
        for top, bottom, want in slot_symbols(len(cert.d_primes), cert.t):
            actual = jacobi(slot_value[top], slot_value[bottom])
            if actual != want:
                problems.append(f"({top}/{bottom}) = {actual}, want {want}")
        return problems

    def clause_lambda() -> list[str]:
        # the gate found r + 1 constructed primes for the r primes of d, so M flips d
        r = len(cert.d_primes)
        lambda_d, problems = (-1) ** r, []
        if cert.lambda_d != lambda_d:
            problems.append(f"lambda_d = {cert.lambda_d}, but the {r} d_primes give {lambda_d}")
        if cert.lambda_m != -lambda_d:
            problems.append(f"lambda_m = {cert.lambda_m}, but lambda(M) = {-lambda_d}")
        return problems

    expected_ab = _split_sides(cert.d, cert.M, cert.t)
    bodies = {
        "primality_congruence": clause_primality,
        "symbol_table": clause_symbols,
        "lambda_flip": clause_lambda,
        "genus_uniqueness": lambda: _clause_genus(cert),
        "pell_evidence": lambda: _clause_evidence(cert.pell_evidence, expected_ab),
    }
    return _run_clauses("certificate", M_CLAUSES, bodies)


def verify_prime_pair(cert: PrimePairCertificate) -> VerificationReport:
    """Re-derive every property of a PrimePairCertificate from scratch.

    structure alone proves structure, and runs is_prime only once its cheap
    checks hold; symbols and genus_uniqueness rest on it, and unit_norm is
    derived from structure and evidence without a continued fraction. A clause
    fails as "depends on X", unrun, while a clause X it rests on fails (_RESTS_ON).
    """

    def clause_structure() -> list[str]:
        primes = (("p", cert.p, 3), ("e1", cert.e1, 3), ("e2", cert.e2, 1))
        problems = [f"{n} = {q} is not a prime {c} mod 4" for n, q, c in primes if q % 4 != c]
        if len({cert.p, cert.e1, cert.e2, 2}) != 4:
            problems.append("p, e1, e2 must be distinct odd primes")
        if cert.m != cert.e1 * cert.e2:
            problems.append(f"m = {cert.m} != e1*e2 = {cert.e1 * cert.e2}")
        if cert.D != cert.p * cert.m:
            problems.append(f"D = {cert.D} != p*m = {cert.p * cert.m}")
        if cert.predicted_form != QuadForm(cert.p, 0, -cert.m):
            problems.append(f"predicted form {cert.predicted_form} is not (p, 0, -m)")
        if not problems:  # is_prime, the one costly test, last
            problems += [f"{n} = {q} is not a prime {c} mod 4" for n, q, c in primes
                         if not is_prime(q)]
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


def verify_document(data) -> VerificationReport:
    """Verify a parsed certificate document, bare or as the result of a --json envelope.

    The kind field alone picks the codec and the verifier. Stored clause outcomes that
    disagree with the recomputed ones fail one more clause, recorded_checks. A document
    that is no certificate raises InvalidInputError.
    """
    if not isinstance(data, dict):
        raise InvalidInputError("certificate document must be a JSON object")
    if "result" in data and isinstance(data["result"], dict):
        data = data["result"]
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in CERTIFICATE_KINDS:
        raise InvalidInputError(
            f"unknown certificate kind {kind!r}; expected one of {sorted(CERTIFICATE_KINDS)}"
        )
    codec, verify = CERTIFICATE_KINDS[kind]
    cert = codec.from_json_dict(data)
    report = verify(cert)
    if cert.checks and cert.checks != report.as_pairs():
        disagree = ClauseResult(
            "recorded_checks", False, "stored clause outcomes disagree with recomputation"
        )
        report = VerificationReport(report.subject, report.clauses + (disagree,))
    return report
