"""Exact integer arithmetic: quadratic symbols, CRT merging, primality, prime search,
square roots modulo a prime.

All functions are pure and use arbitrary-precision integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConstraintInfeasibleError, InvalidInputError, SearchExhaustedError

# Every composite below this bound is exposed by the 12 Miller-Rabin bases below.
PRIMALITY_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_FULL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Smaller proven witness sets, keyed by the bound they are valid below.
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (PRIMALITY_DETERMINISTIC_BOUND, _MR_FULL_BASES),
)

# Product of primes below 100; a single gcd screens small factors cheaply.
_SMALL_PRIME_PRODUCT = math.prod(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
     53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
)

DEFAULT_PRIME_SEARCH_CAP = 10**8


@dataclass(frozen=True)
class ResidueClass:
    """The set of integers congruent to `residue` modulo `modulus`."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise InvalidInputError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise InvalidInputError(
                f"residue {self.residue} out of range for modulus {self.modulus}"
            )

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; equals the Legendre symbol for prime n.

    jacobi(a, 1) = 1 by the empty-product convention. Returns 0 iff gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise InvalidInputError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def delta_char(m: int) -> int:
    """The character delta(m) = (-1)^((m-1)/2) on odd m: +1 iff m = 1 mod 4."""
    if m % 2 == 0:
        raise InvalidInputError(f"delta is defined on odd integers, got {m}")
    return 1 if m % 4 == 1 else -1


def eta_char(m: int) -> int:
    """The character eta(m) = (-1)^((m^2-1)/8) on odd m: +1 iff m = +-1 mod 8."""
    if m % 2 == 0:
        raise InvalidInputError(f"eta is defined on odd integers, got {m}")
    return 1 if m % 8 in (1, 7) else -1


def crt_merge(classes: Sequence[ResidueClass]) -> ResidueClass:
    """Combine residue classes with pairwise coprime moduli into a single class."""
    classes = list(classes)
    if not classes:
        raise InvalidInputError("crt_merge needs at least one residue class")
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            g = math.gcd(classes[i].modulus, classes[j].modulus)
            if g != 1:
                raise ConstraintInfeasibleError(
                    f"moduli {classes[i].modulus} and {classes[j].modulus} "
                    f"share the factor {g}"
                )
    residue, modulus = classes[0].residue, classes[0].modulus
    for cls in classes[1:]:
        inv = pow(modulus, -1, cls.modulus)
        k = ((cls.residue - residue) * inv) % cls.modulus
        residue += modulus * k
        modulus *= cls.modulus
    return ResidueClass(residue % modulus, modulus)


def _miller_rabin(n: int, bases: Iterable[int]) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for base in bases:
        base %= n
        if base == 0:
            continue
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D) / 4. With n + 1 = d 2^s, n passes iff U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some 0 <= r < s.
    """
    # (D / n) is never -1 for a square n; the D search would run up to the
    # least prime of n, beyond 100 here
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # V-only ladder over the bits of d, holding (V_k, V_(k+1), Q^k) mod n
    v, w, qk = 2, 1, 1
    for bit in bin(d)[2:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * Q * qk) % n, qk * qk * Q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    # D U_d = 2 V_(d+1) - V_d, and D is a unit mod n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below PRIMALITY_DETERMINISTIC_BOUND.

    Beyond that bound it runs the strong Baillie-PSW test (Miller-Rabin to
    base 2, then the strong Lucas test above), which has no known
    counterexamples but is not proven, so callers needing certainty on
    huge inputs should treat the answer as probabilistic.
    """
    if n < 2:
        return False
    if n < 64 * 64:
        g = math.gcd(n, _SMALL_PRIME_PRODUCT)
        if g != 1:
            return n == g and is_prime_small(n)
        return True  # no prime factor below 100, and n < 100^2
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    if n < PRIMALITY_DETERMINISTIC_BOUND:
        for bound, bases in _MR_TIERS:
            if n < bound:
                return _miller_rabin(n, bases)
    return _miller_rabin(n, (2,)) and _strong_lucas(n)


def is_prime_small(n: int) -> bool:
    """Trial-division primality for n below 10^4; used to seed the fast paths."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def check_cap(cap: int) -> None:
    """Refuse a negative prime search cap; 0 is valid and admits no prime."""
    if cap < 0:
        raise InvalidInputError(f"cap must be non-negative, got {cap}")


def next_prime_in_class(
    cls: ResidueClass,
    exclude: frozenset[int] | set[int] = frozenset(),
    cap: int = DEFAULT_PRIME_SEARCH_CAP,
    filters: Sequence[tuple[int, int]] = (),
) -> int:
    """Smallest prime in `cls`, not in `exclude`, passing all symbol filters.

    Each filter (p, want), for an odd prime p and want = +-1, keeps only
    candidates c with (c / p) = want, read off Euler's criterion with one
    modular power per candidate, so its cost hardly grows with p. The scan
    is strictly ascending from the least positive member of the class, so
    results are deterministic. Raises SearchExhaustedError past `cap`.
    """
    check_cap(cap)
    if math.gcd(cls.residue, cls.modulus) != 1:
        raise ConstraintInfeasibleError(
            f"class {cls} has gcd({cls.residue}, {cls.modulus}) > 1; "
            "it contains at most one prime"
        )
    # (c / p) = want iff c^((p - 1)/2) = want (mod p); both miss c = 0 (mod p)
    euler = [(p, (p - 1) >> 1, want % p) for p, want in filters]
    candidate = cls.residue if cls.residue > 0 else cls.modulus
    while candidate <= cap:
        if (
            candidate > 1
            and candidate not in exclude
            and all(pow(candidate, e, p) == r for p, e, r in euler)
            and is_prime(candidate)
        ):
            return candidate
        candidate += cls.modulus
    raise SearchExhaustedError(
        f"no admissible prime in {cls} below cap {cap}"
    )


def square_roots(c: int, p: int) -> tuple[int, ...]:
    """The roots of r^2 = c (mod p) for an odd prime p: (0,) if p | c, else (r, p - r) or ().

    One candidate, a root iff c is a square: c^((p+1)/4) for p = 3 (mod 4),
    Atkin's c v (2c v^2 - 1) with v = (2c)^((p-5)/8) for p = 5 (mod 8), and
    the Tonelli-Shanks root for p = 1 (mod 8). Raises InvalidInputError when
    that non-residue search meets a factor of p; otherwise p is trusted to be prime.
    """
    c %= p
    if c == 0:
        return (0,)
    if p & 3 == 3:
        r = pow(c, (p + 1) >> 2, p)
    elif p & 7 == 5:
        v = pow(2 * c, (p - 5) >> 3, p)
        r = c * v * (2 * c * v * v - 1) % p
    else:
        # p - 1 = q 2^s with q odd; z is a non-residue
        s = ((p - 1) & (1 - p)).bit_length() - 1
        q = (p - 1) >> s
        z = 3
        while (symbol := jacobi(z, p)) != -1:
            if symbol == 0:  # z < p shares a factor with p; mod an odd square no -1 exists
                raise InvalidInputError(f"{p} is not prime")
            z += 2  # 2 is a square mod p = 1 mod 8, so (2z / p) = (z / p)
        v = pow(c, q >> 1, p)  # c^((q-1)/2): r = c^((q+1)/2) and t = c^q = r^2 / c
        g, r, t = pow(z, q, p), c * v % p, c * v * v % p
        while t != 1:
            # least i with t^(2^i) = 1; i = s (t of order 2^s) means c is no square
            i, t2 = 0, t
            while t2 != 1 and i < s:
                t2, i = t2 * t2 % p, i + 1
            if i == s:
                break
            b = pow(g, 1 << (s - i - 1), p)
            s, g = i, b * b % p
            t, r = t * g % p, r * b % p
    return (r, p - r) if r * r % p == c else ()


def sqrt_mod(a: int, p: int) -> int:
    """The least r >= 0 with r^2 = a (mod p) for a prime p; InvalidInputError if none."""
    if p == 2:
        return a % 2
    if not (roots := square_roots(a, p)):
        raise InvalidInputError(f"{a % p} is not a square modulo {p}")
    return min(roots)


def integer_sqrt(n: int) -> tuple[int, bool]:
    """Floor square root of n >= 0 plus an exactness flag."""
    if n < 0:
        raise InvalidInputError(f"integer_sqrt needs n >= 0, got {n}")
    root = math.isqrt(n)
    return root, root * root == n
