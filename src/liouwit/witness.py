"""Witness generation: verified integers n with a prescribed sign of lambda(n^2 + d).

The pipeline factors d once, for its square-free core d0, then dispatches:
composite cores route through the constructed integer M (or a direct Pell
solution when that already flips the sign), prime cores through the positive
or negative Pell equation or a constructed prime pair, and cores equal to 1
fall back to a brute scan.  Constructive witnesses are the points of one unit
orbit, each with an exact identity n^2 + d = (known factored part) * k^2 that
is checked in integer arithmetic before any factoring happens; the
factorization of k then upgrades the theoretical sign to a verified one.

sign_change_report counts both signs of lambda(n^2 + d) over a range of n
exactly, with a block sieve over the progressions of n on which a prime power
divides n^2 + d. An odd prime p not dividing d has such progressions iff
(-4d/p) = 1, a character mod 4|d|: while (4|d|)^2 <= the sieve limit, a table
of classes skips most primes that have none (see _sieve_roots). Each hit
adds to one byte per n, by bytes.translate on a slice: one to the parity in
bit 0, the prime's rounded logarithm to the weight sum above it. A sum short
of the value's own logarithm by a margin that rounding cannot cross means
one prime above the sieve limit is left (see _lambda_blocks). No primality
test runs unless |d| is far above the square of the range.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING

# sqrt_mod is bound, unused, because bench/tracer.py wraps it and primerange here by name
from .arith import (  # noqa: F401
    DEFAULT_PRIME_SEARCH_CAP, check_cap, is_prime, sqrt_mod, square_roots,
)
from .errors import (
    FactorBudgetExceededError,
    InternalInvariantError,
    InvalidInputError,
    SearchExhaustedError,
)
from .factor import (
    BRUTE_SCAN_BOUND,
    DEFAULT_FACTOR_BUDGET,
    Factorization,
    check_budget,
    factorize,
    liouville,
    merge_factorizations,
    primerange,
)

# construct and pell are imported where a certificate or a Pell solution is
# built, so that the sign sieve loads neither
if TYPE_CHECKING:
    from .verify import MCertificate, PrimePairCertificate

# n values per block of the sign sieve
_SIEVE_BLOCK = 1 << 16

# the sign sieve divides out every prime up to at least this
_SIEVE_FLOOR = 10**4

# a prime p weighs round(_LOG_SCALE * log2 p) units in the sign sieve's bytes
_LOG_SCALE = 2

# Pell coordinates larger than this are not worth a factoring attempt: the
# iteration budget can only extract factors far below such a k's plausible
# smallest divisor, so the attempt would burn the whole budget and fail. The
# bound is tested on k itself, before the known primes are peeled off it.
FACTOR_ATTEMPT_BIT_BOUND = 256

# A constructive coordinate gets budget // _COORDINATE_BUDGET_SHARE rho
# iterations for what is left after peeling; the brute scan keeps the whole
# budget. Over every request with 0 < |d| <= 50, the most any verifying
# coordinate spends is 679,805 iterations (d = 22), under the quarter of the
# default 4,000,000; an eighth would lose the verified witnesses of d = 22
# and d = -39. The hopeless coordinate of d = -6 peels to a 126-bit product
# of two 63-bit primes, which rho would need some 3 * 10^9 iterations to split.
_COORDINATE_BUDGET_SHARE = 4

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
        fact = self.factorization
        return {
            "d": str(self.d),
            "n": str(self.n),
            "value": str(self.value),
            "lambda": self.lambda_value,
            "provenance": self.provenance,
            "verified": self.verified,
            "factorization": None if fact is None else fact.to_json_dict(),
        }


@dataclass(frozen=True)
class WitnessPlan:
    """Shape analysis of d: factorization, core, scale, strategy branch, and any certificate.

    The certificate is built on first read, so a sign whose recipe does not
    use it never pays for its construction. One that runs past a cap reads
    as None, once, and the request falls through to the brute scan.
    """

    d: int
    factorization: Factorization
    core: int
    scale: int
    branch: str
    cap: int = DEFAULT_PRIME_SEARCH_CAP

    @cached_property
    def certificate(self) -> MCertificate | PrimePairCertificate | None:
        build = _CERTIFICATE_BUILDERS.get(self.branch)
        if build is None:
            return None
        from . import construct

        try:
            return build(construct, abs(self.core), self.cap)
        except SearchExhaustedError:
            return None

    def certificate_for(self, want: int) -> MCertificate | PrimePairCertificate | None:
        """The certificate the recipe of sign `want` reads, or None if it reads none."""
        recipe = _RECIPES.get((self.branch, want))
        return self.certificate if recipe is not None and recipe[0] is None else None


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


@lru_cache(maxsize=256)
def plan(d: int, cap: int = DEFAULT_PRIME_SEARCH_CAP) -> WitnessPlan:
    """The witness strategy for d, one object per (d, cap): d is factored once,
    and its certificate is built once."""
    if d == 0:
        raise InvalidInputError("d must be nonzero")
    # checked here too: a Pell recipe never reaches the prime search
    check_cap(cap)
    fact = factorize(d)
    core, scale = fact.squarefree_split
    # the primes of d0: none, one (a prime core), or more, with lambda(d0) = (-1)^odd
    odd = sum(e % 2 for _, e in fact.factors)
    d0 = abs(core)
    if odd == 0:
        branch = BRANCH_SQUARE_CORE
    elif odd == 1:
        if core > 0:
            branch = BRANCH_PRIME_PLUS
        elif d0 == 2 or d0 % 4 == 1:
            branch = BRANCH_PRIME_MINUS_1MOD4
        else:
            branch = BRANCH_PRIME_MINUS_3MOD4
    elif core > 0:
        branch = BRANCH_COMPOSITE_DIRECT if odd % 2 else BRANCH_COMPOSITE_CERT_PLUS
    else:
        branch = BRANCH_COMPOSITE_CERT_MINUS
    return WitnessPlan(d, fact, core, scale, branch, cap)


# branch -> builder of its certificate from (the construct module, |core|, cap)
_CERTIFICATE_BUILDERS = {
    BRANCH_PRIME_MINUS_3MOD4: lambda c, d0, cap: c.construct_prime_pair(d0, cap),
    BRANCH_COMPOSITE_CERT_PLUS: lambda c, d0, cap: c.construct_M(d0, 1, cap),
    BRANCH_COMPOSITE_CERT_MINUS: lambda c, d0, cap: c.construct_M(d0, -1, cap),
}


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
    """Yield (w, known, k): an unverified witness w, with n^2 + d = known.value * k^2 exactly.

    The points form one unit orbit. The seed (x, y) solves a x^2 - b y^2 = eps,
    D = a b, with d0 = |core| one of a, b: the least solution of x^2 - d0 y^2
    = eps, or the certificate's evidence. With l its coordinate on d0's side
    and k the other, N = d0 l and n = scale * N give n^2 + d = |d| (D / d0) k^2,
    and the unit (t, u) of D steps (N, k) to (t N + D u k, u N + t k). Yields
    nothing when the branch has no construction for the sign, or runs past a cap.
    """
    recipe = _RECIPES.get((witness_plan.branch, want))
    if recipe is None:
        return
    eps, provenance = recipe
    d, scale, d0 = witness_plan.d, witness_plan.scale, abs(witness_plan.core)
    from .pell import fundamental_solution

    if eps is None:
        certificate = witness_plan.certificate
        if certificate is None:
            return
        seed, primes = certificate.identity
        D = seed.a * seed.b
        l, k = (seed.x, seed.y) if seed.a == d0 else (seed.y, seed.x)
        unit = fundamental_solution(D)
    else:
        try:
            unit = fundamental_solution(d0)
        except SearchExhaustedError:
            return
        xy = (unit.t, unit.u) if eps == 1 else unit.neg_solution
        if xy is None:
            raise InternalInvariantError(
                f"negative Pell equation unexpectedly insoluble for D = {d0}"
            )
        (k, l), D, primes = xy, d0, ()

    known = merge_factorizations([
        Factorization(1, witness_plan.factorization.factors),
        Factorization(1, tuple((q, 1) for q in primes if d0 % q)),
    ])
    if known.liouville != want:
        raise InternalInvariantError(
            f"constructive branch {witness_plan.branch} would produce lambda = "
            f"{known.liouville}, not {want}"
        )
    if scale > 1:
        provenance = PROV_SCALED

    N, t, u, m = d0 * l, unit.t, unit.u, known.value
    while True:
        n = scale * N
        value = m * k * k
        if value != n * n + d:
            raise InternalInvariantError(
                f"identity n^2 + d = (known) k^2 fails at n = {n} for d = {d}"
            )
        yield Witness(d, n, value, None, want, provenance, False), known, k
        N, k = t * N + D * u * k, u * N + t * k


def _peeled_factorization(k: int, primes: set[int], budget: int | None) -> Factorization:
    """factorize(k, budget), after the primes in `primes` are divided out of k.

    The division is exact trial division, so the result does not rest on any
    divisibility between Pell coordinates; the budget applies to the cofactor.
    """
    peeled = []
    for p in primes:
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        if e:
            peeled.append((p, e))
    return merge_factorizations([Factorization(1, tuple(peeled)), factorize(k, budget=budget)])


def _verify_constructive(
    w: Witness, known: Factorization, k: int, budget: int | None, primes: set[int]
) -> Witness:
    """Upgrade a theoretical witness by factoring k, or return it unverified.

    `primes` holds the primes of the coordinates the request has factored so
    far: they are peeled off k before rho gets a share of the budget, and the
    primes of k join them once k is factored.
    """
    if budget is not None and k.bit_length() > FACTOR_ATTEMPT_BIT_BOUND:
        return w
    share = None if budget is None else budget // _COORDINATE_BUDGET_SHARE
    try:
        k_fact = _peeled_factorization(k, primes, share)
    except FactorBudgetExceededError:
        return w
    primes.update(p for p, _ in k_fact.factors)
    k_squared = Factorization(1, tuple((p, 2 * e) for p, e in k_fact.factors))
    full = merge_factorizations([known, k_squared])
    # k's exponents are doubled, so lambda(full) = lambda(known) needs no check
    if full.value != w.value:
        raise InternalInvariantError(f"factorization of {w.value} is inconsistent")
    return replace(w, factorization=full, verified=True)


def _witness_stream(
    d: int,
    want: int,
    count: int,
    cap: int,
    budget: int | None,
    scan_bound: int,
) -> list[Witness]:
    # plan(d, cap) refuses d = 0
    if count < 1:
        raise InvalidInputError(f"count must be positive, got {count}")
    # checked here too: the scan may return the plan's factorization at n = 0
    # without a factorize call that would see the budget
    check_budget(budget)
    if scan_bound < 0:
        raise InvalidInputError(f"scan bound must be non-negative, got {scan_bound}")
    if want not in (1, -1):
        raise InvalidInputError(f"sign must be +1 or -1, got {want}")
    witness_plan = plan(d, cap)
    out: list[Witness] = []
    emitted: set[int] = set()
    verified = 0

    consecutive_unverified = 0
    # primes of the coordinates factored so far
    k_primes: set[int] = set()
    for theoretical, known, k in _constructive_stream(witness_plan, want):
        if verified >= count:
            break
        w = _verify_constructive(theoretical, known, k, budget, k_primes)
        out.append(w)
        emitted.add(w.n)
        if w.verified:
            verified += 1
            consecutive_unverified = 0
        else:
            consecutive_unverified += 1
            if consecutive_unverified >= 2:
                break

    if verified < count:
        first = _first_positive(d)
        for n in range(first, first + scan_bound + 1):
            if n in emitted:
                continue
            value = n * n + d
            try:
                # plan(d) already holds the factorization of 0^2 + d
                fact = witness_plan.factorization if n == 0 else factorize(value, budget=budget)
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
                f"brute scan exhausted at n = {first + scan_bound} with "
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
    """Witnesses with lambda(n^2 + d) = -1, constructive where possible.

    A Pell coordinate k of at most FACTOR_ATTEMPT_BIT_BOUND bits is factored
    after the primes of the coordinates factored before it are divided out,
    with budget // 4 rho iterations for the rest; a larger k, or one that
    exhausts its share, gives an unverified witness. The brute scan that tops
    the stream up to `count` verified witnesses spends up to `budget` per n,
    over the scan_bound + 1 values of n from the first with n^2 + d >= 1.
    """
    return _witness_stream(d, -1, count, cap, budget, scan_bound)


def plus_witnesses(
    d: int,
    count: int,
    cap: int = DEFAULT_PRIME_SEARCH_CAP,
    budget: int = DEFAULT_FACTOR_BUDGET,
    scan_bound: int = BRUTE_SCAN_BOUND,
) -> list[Witness]:
    """Witnesses with lambda(n^2 + d) = +1, constructive where possible.

    `budget` is spent as in minus_witnesses.
    """
    return _witness_stream(d, 1, count, cap, budget, scan_bound)


def _first_positive(d: int) -> int:
    """The least n >= 0 with n^2 + d >= 1."""
    return 0 if d > 0 else math.isqrt(-d) + 1


def _sieve_limit(d: int, bound: int) -> int:
    """Largest prime the sign sieve divides out of n^2 + d for n <= bound.

    The square root of the largest value, so that every residual is 1 or a
    prime; but at most max(_SIEVE_FLOOR, bound), so that a |d| far above
    bound^2 cannot make the table of progressions outgrow the bound.
    """
    top = math.isqrt(max(bound * bound + d, 0))
    return min(top, max(_SIEVE_FLOOR, bound))


def _sieve_roots(d: int, limit: int):
    """Yield (p, roots) for each prime p <= limit with a root of n^2 + d mod p.

    The primes are sieved in windows of the block length, so that no list
    of all of them is held at once. For an odd prime p not dividing d, -d is
    a square mod p iff (-4d / p) = 1, a character mod 4|d|. So when
    (4|d|)^2 <= limit, a table of under sqrt(limit) bytes keeps the verdict of
    each class's first prime (0 unseen, 1 residue, 2 not): later primes of a
    non-residue class are skipped, and one of a residue class with no root
    raises. A larger d has few primes per class.
    """
    table = bytearray(mod) if (mod := 4 * abs(d)) ** 2 <= limit else None
    for lo in range(2, limit + 1, _SIEVE_BLOCK):
        for p in primerange(lo, min(lo + _SIEVE_BLOCK, limit + 1)):
            seen = 0 if table is None else table[p % mod]
            if seen == 2:
                continue
            roots = (d & 1,) if p == 2 else square_roots(-d, p)
            if seen and not roots:
                raise InternalInvariantError(f"{-d} is no square mod {p}, unlike its class")
            if table is not None:
                table[p % mod] = 1 if roots else 2
            if roots:
                yield p, roots


def _lift(d: int, p: int, q: int, classes: list) -> list:
    """The classes of n with p q | n^2 + d, from the classes (r, m) with q | n^2 + d.

    On n = r + m t, n^2 + d = q (a + b t + c t(t-1)/2) for integers a, b, c
    (Newton's form), so when p divides all three the class is kept whole,
    with its coarser modulus. Otherwise, for odd p, the lifts t mod p solve
    a quadratic; for p = 2 the parity of t(t-1)/2 depends on t mod 4, so
    the class is halved, at most twice, until each half is whole or empty.
    """
    lifted, todo = [], list(classes)
    while todo:
        r, m = todo.pop()
        a, b, c = (r * r + d) // q, (2 * r + m) * m // q, 2 * m * m // q
        if a % p == b % p == c % p == 0:
            lifted.append((r, m))
        elif p == 2:
            # with b and c even, a is odd and so is a + b t + c t(t-1)/2
            if (b | c) & 1:
                todo += [(r, 2 * m), (r + m, 2 * m)]
        else:
            # c is prime to p only if m^2 = q; then r = 0, b = 1 and c = 2
            if c % p:
                ts = square_roots(-a, p)
            else:
                ts = [-a * pow(b, -1, p) % p] if b % p else []
            lifted += [(r + t * m, m * p) for t in ts]
    return lifted


def _power_classes(d: int, p: int, roots: tuple[int, ...], top: int, bound: int):
    """Yield (r, m) for every level j with p^j <= top and every class of it
    that holds some n <= bound: p^j | n^2 + d for all n = r (mod m).

    For p not dividing 2d the two roots r, p^j - r lift by Hensel's lemma
    with one inverse of 2r mod p; otherwise _lift carries the classes up.
    """
    q = p
    if p == 2 or d % p == 0:
        classes = [(r, p) for r in roots]
        while classes:
            yield from classes
            if q * p > top:
                return
            classes = [(r, m) for r, m in _lift(d, p, q, classes) if r <= bound]
            q *= p
    else:
        r = roots[0]
        inv = pow(2 * r, -1, p)
        while min(r, q - r) <= bound:
            if r <= bound:
                yield r, q
            if q - r <= bound:
                yield q - r, q
            if q * p > top:
                return
            # the lift r + t q with t = -((r^2 + d) / q) / (2r) mod p
            r += -(r * r + d) // q * inv % p * q
            q *= p


def _rough_liouville(v: int, limit: int) -> int:
    """lambda(v) for v > 1 with no prime factor <= limit."""
    if v < (limit + 1) ** 3:
        # one prime factor or two
        return -1 if is_prime(v) else 1
    return liouville(v)


@cache
def _plus(w: int) -> bytes:
    """Byte table that adds w modulo 256."""
    return bytes((x + w) & 255 for x in range(256))


@cache
def _odd(k: int) -> bytes:
    """Byte table that maps a sieve byte x to its parity, flipped if x >> 1 < k."""
    return bytes((x & 1) ^ ((x >> 1) < k) for x in range(256))


def _lambda_blocks(d: int, bound: int):
    """Yield (lo, odd) over the n <= bound with n^2 + d >= 1, block by block:
    odd[i] is 1 where lambda((lo + i)^2 + d) = -1 and 0 where it is +1.

    Every prime power p^j <= bound^2 + d with p <= _sieve_limit(d, bound)
    is walked along its classes of n (see _power_classes). Each hit adds
    2 w + 1, w = round(S log2 p) and S = _LOG_SCALE, to the byte of n by
    bytes.translate on the slice of the class. After Omega hits of weight
    sum W the byte is 2 W + Omega: bit 0 is Omega mod 2, and the bits above
    read W + floor(Omega / 2), under 117 for any bound up to BRUTE_SCAN_BOUND.

    Where V = n^2 + d < (limit + 1)^2, what is left of V after the hits,
    R, is 1 or a prime above the limit, so lambda is the parity, flipped
    when R > 1. The bits above decide that: S log2(V / R) is S log2 V when
    R = 1 and at most S log2 V - S L when R > 1, L = log2(limit + 1), and
    the threshold S log2 V - S L / 2 sits halfway. With S = 2 each prime
    weighs w + 1/2, save 1/2 in all, which is 0 to 1 above 2 log2 p and at
    most 1/2 per bit of p. So the bits read at least 2 log2 V - 1/2 when
    R = 1, at most 2.5 (log2 V - L) when R > 1, and as log2 V < 2 L each
    side keeps a margin of L / 2: 6.6 units once the limit reaches
    _SIEVE_FLOOR, and above 1 once it is 4. So a threshold one off its
    ceiling, as at a run end rounded in floating point, still decides right
    (below a limit of 4, V < 16 and that rounding crosses no integer).

    Only when |d| is far above bound^2, so that the limit is capped, can a
    block hold V >= (limit + 1)^2. There the walk also keeps the exact
    product of the divided prime powers, the parity is read from bit 0, and
    a residual at or above the cap's square goes to _rough_liouville.
    """
    limit = _sieve_limit(d, bound)
    top = bound * bound + d
    square = (limit + 1) ** 2
    half = _LOG_SCALE * math.log2(limit + 1) / 2
    block = _SIEVE_BLOCK
    first = _first_positive(d)
    first_lo = first - first % block
    # A class with modulus up to the block length is walked through every
    # block. A coarser one hits a block at most once, so it waits in the
    # bucket of the block that holds its next n from first_lo on; the work
    # stays linear in the bound however many blocks there are. A bucket is a
    # flat array of (step, n, p << 8 | byte added); any step above the bound
    # stands for m.
    small = []
    buckets = [array("q") for _ in range(bound // block + 1)]
    for p, roots in _sieve_roots(d, limit):
        hit = 2 * round(_LOG_SCALE * math.log2(p)) + 1
        for r, m in _power_classes(d, p, roots, top, bound):
            if m <= block:
                small.append((m, r, _plus(hit), p))
                continue
            step = min(m, bound + 1)
            n = r + max(0, -((r - first_lo) // step)) * step
            if n <= bound:
                buckets[n // block].extend((step, n, p << 8 | hit))
    for lo in range(first_lo, bound + 1, block):
        b, size = lo // block, min(block, bound + 1 - lo)
        sieve = bytearray(size)
        capped = (lo + size - 1) ** 2 + d >= square
        product = [1] * size if capped else None
        for m, r, plus, p in small:
            i = (r - lo) % m
            sieve[i::m] = sieve[i::m].translate(plus)
            if capped:
                product[i::m] = map(p.__mul__, product[i::m])
        due, buckets[b] = buckets[b], None
        for m, n, key in zip(due[::3], due[1::3], due[2::3]):
            i = n - lo
            # the low byte of key is what a hit adds
            sieve[i] = (sieve[i] + key) & 255
            if capped:
                product[i] *= key >> 8
            if n + m <= bound:
                buckets[(n + m) // block].extend((m, n + m, key))
        start = max(0, min(size, first - lo))
        if start == size:
            continue
        if capped:
            for i in range(start, size):
                rest = ((lo + i) ** 2 + d) // product[i]
                flip = rest > 1 if rest < square else _rough_liouville(rest, limit) < 0
                sieve[i] = sieve[i] & 1 ^ flip
        else:
            i = start
            while i < size:
                k = math.ceil(_LOG_SCALE * math.log2((lo + i) ** 2 + d) - half)
                # the ceiling stays k while n^2 + d <= 2^((k + half) / S)
                j = math.isqrt(max(int(2 ** ((k + half) / _LOG_SCALE)) - d, 0)) + 1 - lo
                j = min(size, max(i + 1, j))
                sieve[i:j] = sieve[i:j].translate(_odd(k))
                i = j
        yield lo + start, bytes(sieve[start:])


def sign_change_report(d: int, bound: int) -> SignChangeReport:
    """Count both signs of lambda(n^2 + d) for 0 <= n <= bound exactly."""
    if d == 0:
        raise InvalidInputError("d must be nonzero")
    if bound < 0:
        raise InvalidInputError(f"bound must be nonnegative, got {bound}")
    if bound > BRUTE_SCAN_BOUND:
        # memory for the sieve's primes and roots grows with the bound
        raise SearchExhaustedError(
            f"bound {bound} is above the scan limit {BRUTE_SCAN_BOUND}"
        )
    count_minus = count = 0
    first = first_change = None
    for lo, odd in _lambda_blocks(d, bound):
        count_minus += odd.count(1)
        count += len(odd)
        if first is None:
            first = odd[0]
        if first_change is None and (i := odd.find(first ^ 1)) >= 0:
            first_change = lo + i
    return SignChangeReport(d, bound, count_minus, count - count_minus, first_change)
