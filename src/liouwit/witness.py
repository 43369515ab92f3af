"""Witness generation: verified integers n with a prescribed sign of lambda(n^2 + d).

The pipeline reduces d to its square-free core d0, then dispatches: composite
cores route through the constructed integer M (or a direct Pell solution when
that already flips the sign), prime cores route through the positive or
negative Pell equation or a constructed prime pair, and cores equal to 1 fall
back to a brute scan.  Constructive witnesses satisfy an exact identity
n^2 + d = (known square-free part) * k^2 that is checked in integer arithmetic
before any factoring happens; the factorization of k then upgrades the
theoretical sign to an independently verified one.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import integer_nthroot, primerange
from sympy.ntheory.residue_ntheory import sqrt_mod

from .arith import DEFAULT_PRIME_SEARCH_CAP, is_prime, jacobi
from .construct import (
    MCertificate,
    PrimePairCertificate,
    construct_M,
    construct_prime_pair,
)
from .errors import (
    FactorBudgetExceededError,
    InternalInvariantError,
    InvalidInputError,
    SearchExhaustedError,
)
from .factor import (
    DEFAULT_FACTOR_BUDGET,
    Factorization,
    factorize,
    liouville,
    merge_factorizations,
    squarefree_core,
)
from .pell import GeneralizedSolution, fundamental_solution, iterate_solution

BRUTE_SCAN_BOUND = 10**7

# Pell coordinates larger than this are not worth a factoring attempt: the
# iteration budget can only extract factors far below such a k's plausible
# smallest divisor, so the attempt would burn the whole budget and fail.
FACTOR_ATTEMPT_BIT_BOUND = 256

# how a witness was produced
PROV_DIRECT_PELL = "direct_pell"
PROV_CERTIFICATE = "certificate"
PROV_PRIME_PAIR = "prime_pair"
PROV_NEGATIVE_PELL = "negative_pell"
PROV_SCALED = "scaled"
PROV_BRUTE = "brute"

BRANCH_SQUARE_CORE = "square_core_fallback"
BRANCH_PRIME_PLUS = "prime_core_plus"
BRANCH_PRIME_MINUS_1MOD4 = "prime_core_minus_1mod4"
BRANCH_PRIME_MINUS_3MOD4 = "prime_core_minus_3mod4"
BRANCH_COMPOSITE_DIRECT = "composite_direct"
BRANCH_COMPOSITE_CERT_PLUS = "composite_certificate_plus"
BRANCH_COMPOSITE_CERT_MINUS = "composite_certificate_minus"

BRANCHES = (
    BRANCH_SQUARE_CORE,
    BRANCH_PRIME_PLUS,
    BRANCH_PRIME_MINUS_1MOD4,
    BRANCH_PRIME_MINUS_3MOD4,
    BRANCH_COMPOSITE_DIRECT,
    BRANCH_COMPOSITE_CERT_PLUS,
    BRANCH_COMPOSITE_CERT_MINUS,
)


@dataclass(frozen=True)
class Witness:
    """One verified (or budget-limited theoretical) sign of lambda(n^2 + d)."""

    d: int
    n: int
    value: int
    factorization: Factorization | None
    lambda_value: int
    provenance: str
    verified: bool

    def to_json_dict(self) -> dict:
        fact = None
        if self.factorization is not None:
            fact = {
                "sign": self.factorization.sign,
                "factors": [[str(p), e] for p, e in self.factorization.factors],
            }
        return {
            "d": str(self.d),
            "n": str(self.n),
            "value": str(self.value),
            "lambda": self.lambda_value,
            "provenance": self.provenance,
            "verified": self.verified,
            "factorization": fact,
        }


@dataclass(frozen=True)
class WitnessPlan:
    """Shape analysis of d: core, scale, strategy branch, and any certificate."""

    d: int
    core: int
    scale: int
    branch: str
    certificate: MCertificate | PrimePairCertificate | None = None


@dataclass(frozen=True)
class SignChangeReport:
    """Exhaustive lambda(n^2 + d) statistics over 0 <= n <= bound."""

    d: int
    bound: int
    count_minus: int
    count_plus: int
    first_change_n: int | None

    def to_json_dict(self) -> dict:
        return {
            "d": str(self.d),
            "bound": str(self.bound),
            "count_minus": self.count_minus,
            "count_plus": self.count_plus,
            "first_change_n": None
            if self.first_change_n is None
            else str(self.first_change_n),
        }


def plan(d: int, cap: int = DEFAULT_PRIME_SEARCH_CAP) -> WitnessPlan:
    """Pick the witness strategy for d and build any certificate it needs."""
    if d == 0:
        raise InvalidInputError("d must be nonzero")
    core, scale = squarefree_core(d)
    d0 = abs(core)
    if d0 == 1:
        return WitnessPlan(d, core, scale, BRANCH_SQUARE_CORE)
    if is_prime(d0):
        if core > 0:
            return WitnessPlan(d, core, scale, BRANCH_PRIME_PLUS)
        if d0 == 2 or d0 % 4 == 1:
            return WitnessPlan(d, core, scale, BRANCH_PRIME_MINUS_1MOD4)
        return WitnessPlan(
            d, core, scale, BRANCH_PRIME_MINUS_3MOD4, construct_prime_pair(d0, cap)
        )
    if core > 0:
        if liouville(d0) == -1:
            return WitnessPlan(d, core, scale, BRANCH_COMPOSITE_DIRECT)
        return WitnessPlan(
            d, core, scale, BRANCH_COMPOSITE_CERT_PLUS, construct_M(d0, 1, cap)
        )
    return WitnessPlan(
        d, core, scale, BRANCH_COMPOSITE_CERT_MINUS, construct_M(d0, -1, cap)
    )


def _solution_stream(first: GeneralizedSolution):
    """first, then its composition with the fundamental solution, forever."""
    fund = fundamental_solution(first.a * first.b)
    sol = first
    while True:
        yield sol
        sol = iterate_solution(sol, fund)


def _squared(fact: Factorization) -> Factorization:
    return Factorization(1, tuple((p, 2 * e) for p, e in fact.factors))


def _pell_identity(d0: int, eps: int) -> tuple[GeneralizedSolution, tuple[int, ...]]:
    """Least solution of x^2 - d0 y^2 = eps, and the primes of d0."""
    fund = fundamental_solution(d0)
    xy = (fund.t, fund.u) if eps == 1 else fund.neg_solution
    if xy is None:
        raise InternalInvariantError(
            f"negative Pell equation unexpectedly insoluble for D = {d0}"
        )
    return GeneralizedSolution(1, d0, eps, *xy), tuple(p for p, _ in factorize(d0).factors)


# (branch, sign) -> (eps, provenance): the first solution is the least one
# of x^2 - d0 y^2 = eps, or with eps None the certificate's evidence. A pair
# missing here has no construction. The only + construction is the direct
# Pell of a positive core with lambda(d0) = +1: n = d0 y with
# x^2 - d0 y^2 = 1 gives n^2 + d0 = d0 x^2.
_RECIPES = {
    (BRANCH_PRIME_PLUS, -1): (1, PROV_DIRECT_PELL),
    (BRANCH_COMPOSITE_DIRECT, -1): (1, PROV_DIRECT_PELL),
    (BRANCH_COMPOSITE_CERT_PLUS, 1): (1, PROV_DIRECT_PELL),
    (BRANCH_PRIME_MINUS_1MOD4, -1): (-1, PROV_NEGATIVE_PELL),
    (BRANCH_PRIME_MINUS_3MOD4, -1): (None, PROV_PRIME_PAIR),
    (BRANCH_COMPOSITE_CERT_PLUS, -1): (None, PROV_CERTIFICATE),
    (BRANCH_COMPOSITE_CERT_MINUS, -1): (None, PROV_CERTIFICATE),
}


def _constructive_stream(witness_plan: WitnessPlan, want: int):
    """Yield (n, value, known, k) with n^2 + d = known.value * k^2 exactly.

    `known` is the fully factored square-free-by-construction part, already
    including the scale lift; `k` is the growing Pell coordinate. Returns None
    when the branch has no construction for the requested sign.
    """
    recipe = _RECIPES.get((witness_plan.branch, want))
    if recipe is None:
        return None
    eps, provenance = recipe
    d = witness_plan.d
    d0 = abs(witness_plan.core)
    scale = witness_plan.scale
    if eps is None:
        first, primes = witness_plan.certificate.identity
    else:
        first, primes = _pell_identity(d0, eps)

    known = merge_factorizations(
        [Factorization(1, tuple((q, 1) for q in primes)), _squared(factorize(scale))]
    )
    if known.liouville != want:
        raise InternalInvariantError(
            f"constructive branch {witness_plan.branch} would produce lambda = "
            f"{known.liouville}, not {want}"
        )
    if scale > 1:
        provenance = PROV_SCALED
    # n = d0 l, where l is the coordinate on d0's side of a x^2 - b y^2 = eps
    d0_on_x = first.a == d0

    def generate():
        for sol in _solution_stream(first):
            l, k = (sol.x, sol.y) if d0_on_x else (sol.y, sol.x)
            n = d0 * l * scale
            value = known.value * k * k
            if value != n * n + d:
                raise InternalInvariantError(
                    f"identity n^2 + d = (known) k^2 fails at n = {n} for d = {d}"
                )
            yield n, value, known, k, provenance

    return generate()


def _verify_constructive(
    d: int,
    n: int,
    value: int,
    known: Factorization,
    k: int,
    provenance: str,
    budget: int,
) -> Witness:
    """Upgrade a theoretical witness by factoring k, or flag it unverified."""
    if budget is not None and k.bit_length() > FACTOR_ATTEMPT_BIT_BOUND:
        return Witness(d, n, value, None, known.liouville, provenance, False)
    try:
        k_fact = factorize(k, budget=budget)
    except FactorBudgetExceededError:
        return Witness(d, n, value, None, known.liouville, provenance, False)
    full = merge_factorizations([known, _squared(k_fact)])
    if full.value != value:
        raise InternalInvariantError(f"factorization of {value} is inconsistent")
    if full.liouville != known.liouville:
        raise InternalInvariantError(
            f"lambda({value}) = {full.liouville} contradicts the construction"
        )
    return Witness(d, n, value, full, full.liouville, provenance, True)


def _witness_stream(
    d: int,
    want: int,
    count: int,
    cap: int,
    budget: int,
    scan_bound: int,
) -> list[Witness]:
    if d == 0:
        raise InvalidInputError("d must be nonzero")
    if count < 1:
        raise InvalidInputError(f"count must be positive, got {count}")
    if want not in (1, -1):
        raise InvalidInputError(f"sign must be +1 or -1, got {want}")
    witness_plan = plan(d, cap)
    out: list[Witness] = []
    emitted: set[int] = set()
    verified = 0

    stream = _constructive_stream(witness_plan, want)
    if stream is not None:
        consecutive_unverified = 0
        for n, value, known, k, provenance in stream:
            if verified >= count:
                break
            w = _verify_constructive(d, n, value, known, k, provenance, budget)
            out.append(w)
            emitted.add(n)
            if w.verified:
                verified += 1
                consecutive_unverified = 0
            else:
                consecutive_unverified += 1
                if consecutive_unverified >= 2:
                    break

    if verified < count:
        for n in range(0, scan_bound + 1):
            if n in emitted:
                continue
            value = n * n + d
            if value < 1:
                continue
            try:
                fact = factorize(value, budget=budget)
            except FactorBudgetExceededError:
                continue
            if fact.liouville != want:
                continue
            out.append(Witness(d, n, value, fact, want, PROV_BRUTE, True))
            emitted.add(n)
            verified += 1
            if verified >= count:
                break
        else:
            raise SearchExhaustedError(
                f"brute scan exhausted at n = {scan_bound} with "
                f"{verified} of {count} witnesses for d = {d}, sign {want}"
            )
    return sorted(out, key=lambda w: w.n)


def minus_witnesses(
    d: int,
    count: int,
    cap: int = DEFAULT_PRIME_SEARCH_CAP,
    budget: int = DEFAULT_FACTOR_BUDGET,
    scan_bound: int = BRUTE_SCAN_BOUND,
) -> list[Witness]:
    """Witnesses with lambda(n^2 + d) = -1, constructive where possible."""
    return _witness_stream(d, -1, count, cap, budget, scan_bound)


def plus_witnesses(
    d: int,
    count: int,
    cap: int = DEFAULT_PRIME_SEARCH_CAP,
    budget: int = DEFAULT_FACTOR_BUDGET,
    scan_bound: int = BRUTE_SCAN_BOUND,
) -> list[Witness]:
    """Witnesses with lambda(n^2 + d) = +1, constructive where possible."""
    return _witness_stream(d, 1, count, cap, budget, scan_bound)


def scale_witness(w: Witness, scale: int) -> Witness:
    """Lift a witness for core d0 to one for d0 * scale^2 via n -> n * scale."""
    if scale < 1:
        raise InvalidInputError(f"scale must be positive, got {scale}")
    if scale == 1:
        return w
    d = w.d * scale * scale
    n = w.n * scale
    value = w.value * scale * scale
    fact = None
    if w.factorization is not None:
        fact = merge_factorizations([w.factorization, _squared(factorize(scale))])
        if fact.value != value:
            raise InternalInvariantError("scaled factorization is inconsistent")
    return Witness(d, n, value, fact, w.lambda_value, PROV_SCALED, w.verified)


def _lambda_array(d: int, bound: int) -> list[int | None]:
    """lambda(n^2 + d) for 0 <= n <= bound, None where n^2 + d < 1.

    Sieve of quadratic progressions: for each prime p up to roughly the cube
    root of the largest value, the n with p | n^2 + d form at most two residue
    classes mod p found by a modular square root; stripping those primes
    leaves residuals with at most two prime factors, resolved by one
    primality test.
    """
    values = [n * n + d for n in range(bound + 1)]
    omega = [0] * (bound + 1)
    residual = [v if v >= 1 else 0 for v in values]
    max_value = max(values[-1], 1)
    limit = max(10_000, integer_nthroot(max_value, 3)[0] + 1)

    for p in primerange(2, limit + 1):
        if p == 2:
            roots = [d % 2]
        elif d % p == 0:
            roots = [0]
        else:
            c = (-d) % p
            if jacobi(c, p) == -1:
                continue
            r = int(sqrt_mod(c, p))
            roots = sorted({r, p - r})
        for root in roots:
            for n in range(root, bound + 1, p):
                v = residual[n]
                if v == 0:
                    continue
                while v % p == 0:
                    v //= p
                    omega[n] += 1
                residual[n] = v

    out: list[int | None] = [None] * (bound + 1)
    for n in range(bound + 1):
        v = residual[n]
        if v == 0:
            continue
        if v > 1:
            if v >= limit * limit * limit:
                raise InternalInvariantError(f"residual {v} too large at n = {n}")
            omega[n] += 1 if is_prime(v) else 2
        out[n] = -1 if omega[n] % 2 else 1
    return out


def sign_change_report(d: int, bound: int) -> SignChangeReport:
    """Count both signs of lambda(n^2 + d) for 0 <= n <= bound exactly."""
    if d == 0:
        raise InvalidInputError("d must be nonzero")
    if bound < 0:
        raise InvalidInputError(f"bound must be nonnegative, got {bound}")
    lambdas = _lambda_array(d, bound)
    count_minus = sum(1 for v in lambdas if v == -1)
    count_plus = sum(1 for v in lambdas if v == 1)
    first = None
    first_change = None
    for n, v in enumerate(lambdas):
        if v is None:
            continue
        if first is None:
            first = v
        elif v != first:
            first_change = n
            break
    return SignChangeReport(d, bound, count_minus, count_plus, first_change)
