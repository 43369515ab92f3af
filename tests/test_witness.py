"""Unit tests for witness generation and the exhaustive sign reports."""

import tracemalloc
from functools import cache

import pytest

from liouwit import factor, witness
from liouwit import (
    BRUTE_SCAN_BOUND,
    DEFAULT_FACTOR_BUDGET,
    Factorization,
    InternalInvariantError,
    InvalidInputError,
    MCertificate,
    PrimePairCertificate,
    SearchExhaustedError,
    Witness,
    factorize,
    liouville,
    minus_witnesses,
    plan,
    plus_witnesses,
    sign_change_report,
)
from liouwit.witness import (
    BRANCH_COMPOSITE_CERT_MINUS,
    BRANCH_COMPOSITE_CERT_PLUS,
    BRANCH_COMPOSITE_DIRECT,
    BRANCH_PRIME_MINUS_1MOD4,
    BRANCH_PRIME_MINUS_3MOD4,
    BRANCH_PRIME_PLUS,
    BRANCH_SQUARE_CORE,
)


def test_plan_branches():
    assert plan(1).branch == BRANCH_SQUARE_CORE
    assert plan(4).branch == BRANCH_SQUARE_CORE
    assert plan(-9).branch == BRANCH_SQUARE_CORE
    assert plan(7).branch == BRANCH_PRIME_PLUS
    assert plan(-5).branch == BRANCH_PRIME_MINUS_1MOD4
    assert plan(-2).branch == BRANCH_PRIME_MINUS_1MOD4
    assert plan(-7).branch == BRANCH_PRIME_MINUS_3MOD4
    assert plan(30).branch == BRANCH_COMPOSITE_DIRECT
    assert plan(6).branch == BRANCH_COMPOSITE_CERT_PLUS
    assert plan(-6).branch == BRANCH_COMPOSITE_CERT_MINUS
    with pytest.raises(InvalidInputError):
        plan(0)


def test_plan_core_scale_and_certificates():
    p = plan(54)  # 54 = 6 * 3^2
    assert (p.core, p.scale) == (6, 3)
    assert isinstance(p.certificate, MCertificate)
    assert p.certificate.d == 6 and p.certificate.t == 1

    p = plan(-24)  # -24 = -6 * 2^2
    assert (p.core, p.scale) == (-6, 2)
    assert p.certificate.d == 6 and p.certificate.t == -1

    p = plan(-7)
    assert isinstance(p.certificate, PrimePairCertificate)
    assert p.certificate.p == 7

    assert plan(30).certificate is None


def test_minus_witnesses_certificate_d6():
    got = minus_witnesses(6, 1)
    assert [(w.n, w.value, w.provenance, w.verified) for w in got] == [
        (708, 501270, "certificate", True)
    ]
    w = got[0]
    assert w.value == w.n * w.n + 6
    assert w.lambda_value == -1
    assert w.factorization.value == w.value
    assert w.factorization.liouville == -1


def test_plus_witnesses_direct_pell_d6():
    got = plus_witnesses(6, 2)
    assert [(w.n, w.value, w.provenance) for w in got] == [
        (12, 150, "direct_pell"),
        (120, 14406, "direct_pell"),
    ]
    assert all(w.verified and w.lambda_value == 1 for w in got)


def test_minus_witnesses_prime_pair_d_minus3():
    got = minus_witnesses(-3, 2)
    assert [(w.n, w.value, w.provenance) for w in got] == [
        (1512, 2286141, "prime_pair"),
        (4608861768, 21241606796532085821, "prime_pair"),
    ]
    for w in got:
        assert w.value == w.n * w.n - 3
        assert w.verified and w.lambda_value == -1


def test_plus_witnesses_brute_d_minus3():
    got = plus_witnesses(-3, 1)
    assert [(w.n, w.value, w.provenance) for w in got] == [(2, 1, "brute")]


def test_minus_witnesses_negative_pell_d_minus5():
    got = minus_witnesses(-5, 2)
    assert [(w.n, w.value, w.provenance) for w in got] == [
        (5, 20, "negative_pell"),
        (85, 7220, "negative_pell"),
    ]


def test_minus_witnesses_scaled_d54():
    got = minus_witnesses(54, 1)
    assert [(w.n, w.value, w.provenance) for w in got] == [
        (2124, 4511430, "scaled")
    ]
    assert got[0].value == 2124 * 2124 + 54


def test_witnesses_square_core_brute():
    got = minus_witnesses(4, 1)
    assert [(w.n, w.value, w.provenance) for w in got] == [(1, 5, "brute")]
    got = plus_witnesses(4, 2)
    assert [(w.n, w.value) for w in got] == [(0, 4), (6, 40)]


def test_witness_stream_validation():
    with pytest.raises(InvalidInputError):
        minus_witnesses(0, 1)
    with pytest.raises(InvalidInputError):
        minus_witnesses(6, 0)


def test_unverified_constructive_witnesses_flagged():
    # the first certificate coordinate for d = 15 factors by trial division
    # alone, the next two are hopeless: they come back flagged and the brute
    # scan tops the stream up to the requested verified count
    got = minus_witnesses(15, 3, budget=1)
    assert [(w.provenance, w.verified) for w in got] == [
        ("brute", True),
        ("brute", True),
        ("certificate", True),
        ("certificate", False),
        ("certificate", False),
    ]
    for w in got:
        if not w.verified:
            assert w.factorization is None
            assert w.lambda_value == -1  # structural sign, not factor-checked
        assert w.value == w.n * w.n + 15
    assert [w.n for w in got] == sorted(w.n for w in got)


def test_big_pell_coordinates_skip_factoring():
    # d = -15 routes through the t = -1 certificate whose evidence has
    # hundreds of digits; those witnesses must come back unverified fast
    got = minus_witnesses(-15, 3)
    assert sum(1 for w in got if w.verified) == 3
    big = [w for w in got if not w.verified]
    assert all(w.n.bit_length() > 256 for w in big)


# (n, provenance, verified) of minus_witnesses(d, 3). For -6, -10 and 10 the
# stream is what it was before the known primes were peeled off each Pell
# coordinate; d = 33's second coordinate factors only after the peel.
SWEEP_PINS = {
    -6: [
        (3, "brute", True),
        (5, "brute", True),
        (9078303164666103024, "certificate", True),
        (498795797687913781016171535042610411221210491936584356144, "certificate", False),
        (
            27405699421833848283235883965851787660399160796823303794207888928719735961629888948871800567984,
            "certificate",
            False,
        ),
    ],
    -10: [
        (9, "brute", True),
        (18251872902778934620, "certificate", True),
        (2432104879240848118808080570537536086165733636168898047340, "certificate", True),
        (
            324083680350772826807074703255403322237241289966253151566578349520411724998469710357421237729100,
            "certificate",
            False,
        ),
        (
            43184910636948273128527511862119293035017823835570694172712723319786156113722987707956355872847198221117147068551478622269240275310460,
            "certificate",
            False,
        ),
    ],
    10: [
        (1, "brute", True),
        (3, "brute", True),
        (28001150022431942153940839789425651580700, "certificate", True),
        (
            8781881985542313121424637397413796149003419959434330449175902766812671179694021045790079932801962367817818833182131942100,
            "certificate",
            False,
        ),
        (
            2754224421004494351013667851264594765749093443081382924996515462059161315375586607794677427986556258798087934698247112976816999921107675025147340802645517272270303883008686125103303771284104945343903500,
            "certificate",
            False,
        ),
    ],
    33: [
        (2, "brute", True),
        (13513713627191744419596, "certificate", True),
        (
            299137035735846727544025933113708855095512653687096456600069406756,
            "certificate",
            True,
        ),
        (
            6621641439017566605632693128660820246813901149024177748560828693165110984639669293994519032533682907674991164,
            "certificate",
            False,
        ),
        (
            146575415642057127129000138823860583329231718296660710114644151318051879148439416130737993001868566048410475258621535444374336871345792523341074264185684,
            "certificate",
            False,
        ),
    ],
}


@pytest.mark.parametrize("d", sorted(SWEEP_PINS))
def test_witness_sweep_pins(d):
    got = minus_witnesses(d, 3)
    assert [(w.n, w.provenance, w.verified) for w in got] == SWEEP_PINS[d]


def test_constructive_coordinates_spend_a_quarter_of_the_budget(monkeypatch):
    # d = -6's second coordinate peels to a 126-bit product of two 63-bit
    # primes that rho cannot split; the brute scan keeps the whole budget
    spent, inside = [0], [False]
    real_spend, real_verify = factor._Budget.spend, witness._verify_constructive

    def spend(self, amount):
        real_spend(self, amount)  # raises before the iterations would run
        if inside[0]:
            spent[0] += amount

    def verify(*args):
        inside[0] = True
        try:
            return real_verify(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(factor._Budget, "spend", spend)
    monkeypatch.setattr(witness, "_verify_constructive", verify)
    minus_witnesses(-6, 3)
    assert 0 < spent[0] <= DEFAULT_FACTOR_BUDGET // 4


@pytest.mark.parametrize("d", [-10, 22, -46, 33])
def test_peeled_factorization_matches_factorize(monkeypatch, d):
    # peeling is exact trial division by primes already found, whatever the
    # divisibility between coordinates
    real = witness._peeled_factorization
    calls = []

    def recording(k, primes, budget):
        fact = real(k, primes, budget)
        calls.append((k, any(k % p == 0 for p in primes), fact))
        return fact

    monkeypatch.setattr(witness, "_peeled_factorization", recording)
    minus_witnesses(d, 3)
    plus_witnesses(d, 3)
    assert any(peeled for _, peeled, _ in calls)
    for k, _, fact in calls:
        assert fact == factorize(k, budget=None), k


def test_to_json_dict():
    w = minus_witnesses(6, 1)[0]
    doc = w.to_json_dict()
    assert doc["n"] == "708"
    assert doc["lambda"] == -1
    assert doc["verified"] is True
    assert ["2", 1] in doc["factorization"]["factors"]

    unverified = Witness(6, 708, 501270, None, -1, "certificate", False)
    assert unverified.to_json_dict()["factorization"] is None


def test_sign_change_report_pinned():
    rep = sign_change_report(1, 1000)
    assert (rep.count_minus, rep.count_plus, rep.first_change_n) == (482, 519, 1)
    rep = sign_change_report(6, 1000)
    assert (rep.count_minus, rep.count_plus, rep.first_change_n) == (502, 499, 1)
    rep = sign_change_report(-6, 1000)
    assert (rep.count_minus, rep.count_plus, rep.first_change_n) == (491, 507, 4)
    rep = sign_change_report(-3, 1000)
    assert (rep.count_minus, rep.count_plus, rep.first_change_n) == (487, 512, 4)


def test_sign_change_report_pinned_past_a_million():
    # sieving to sqrt(bound^2 + d) needs primes above 10^6 here
    rep = sign_change_report(6, 1_000_050)
    assert (rep.count_minus, rep.count_plus, rep.first_change_n) == (499266, 500785, 1)
    rep = sign_change_report(-7, 1_000_050)
    assert (rep.count_minus, rep.count_plus, rep.first_change_n) == (499784, 500264, 4)


def test_sign_change_report_memory_is_pinned():
    # Bytes per n and flat bucket arrays keep the peak near 2 MB; a Python
    # int per n of a block and a tuple per (prime, root) took 9.36 MB.
    # No timing is checked.
    sign_change_report(6, 100)
    tracemalloc.start()
    try:
        sign_change_report(6, 3 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000


def test_sign_change_report_matches_direct_factorization():
    for d in (1, -1, 6, -6, 17, -20):
        rep = sign_change_report(d, 200)
        minus = plus = 0
        for n in range(201):
            value = n * n + d
            if value < 1:
                continue
            if liouville(value) == -1:
                minus += 1
            else:
                plus += 1
        assert (rep.count_minus, rep.count_plus) == (minus, plus), d


def test_sign_change_report_skips_nonpositive_values():
    rep = sign_change_report(-100, 10)
    # n = 0..10 has n^2 - 100 >= 1 only for n = 11 onwards: nothing counted
    assert rep.count_minus == 0 and rep.count_plus == 0
    assert rep.first_change_n is None
    with pytest.raises(InvalidInputError):
        sign_change_report(0, 100)
    with pytest.raises(InvalidInputError):
        sign_change_report(1, -1)


def test_sign_change_report_caps_the_bound():
    # the sieve's memory grows with the bound; past the scan limit it stops at once
    with pytest.raises(SearchExhaustedError, match="scan limit"):
        sign_change_report(6, BRUTE_SCAN_BOUND + 1)
    with pytest.raises(SearchExhaustedError):
        sign_change_report(-7, 10**30)


@cache
def brute_roots(p: int) -> dict[int, tuple[int, ...]]:
    """{c: every r in [0, p) with r^2 = c (mod p)}, by squaring each r."""
    roots = {}
    for r in range(p):
        roots[r * r % p] = roots.get(r * r % p, ()) + (r,)
    return roots


def assert_sieve_roots_brute(d: int, limit: int) -> None:
    got = {p: tuple(sorted(roots)) for p, roots in witness._sieve_roots(d, limit)}
    for p in factor.primerange(2, limit + 1):
        assert got.get(p, ()) == brute_roots(p).get(-d % p, ()), (d, limit, p)


def test_sieve_roots_match_brute_roots():
    # at limit 2000 the table of classes mod 4|d| serves |d| <= 11; the
    # others, and every d above the table rule, take the per-prime path
    ds = [d for d in range(-60, 61) if d]
    ds += [s * m * m * k for s in (1, -1) for m in (2, 3, 6, 7) for k in (1, 2, 5)]
    for d in ds + [10**12, 10**18 + 7, -(10**12), 3**40]:
        for limit in (1, 2, 30, 2000):
            assert_sieve_roots_brute(d, limit)


def test_sieve_roots_with_the_table_at_its_least_limit():
    # the table is used once (4|d|)^2 <= limit; at that limit the primes
    # with roots are those where -d is not a non-residue by Euler's criterion
    for d in [d for d in range(-60, 61) if d] + [-96, 72]:
        limit = (4 * abs(d)) ** 2
        got = dict(witness._sieve_roots(d, limit))
        for p in factor.primerange(3, limit + 1):
            euler = pow(-d, (p - 1) // 2, p)
            if euler == p - 1:
                assert p not in got, (d, p)
            elif euler == 0:
                assert got[p] == (0,), (d, p)
            else:
                r, s = got[p]
                assert r * r % p == -d % p and r + s == p, (d, p)
        assert got[2] == (d & 1,)


def test_sieve_roots_skip_later_primes_of_a_non_residue_class(monkeypatch):
    # -6 is a square mod p only in some classes mod 24; among the primes
    # p = 1 mod 8, which square_roots serves by Tonelli-Shanks, those = 17
    # mod 24 are non-residues. Only the first prime of each non-residue
    # class may reach square_roots.
    calls, real = [], witness.square_roots

    def counting(a, p):
        if p % 8 == 1:
            calls.append((a, p))
        return real(a, p)

    monkeypatch.setattr(witness, "square_roots", counting)
    report = sign_change_report(6, 10**4)
    assert (report.count_minus, report.count_plus, report.first_change_n) == (4998, 5003, 1)
    non_residue = [p for a, p in calls if pow(a, (p - 1) // 2, p) == p - 1]
    assert non_residue == [17]
    # and the residue primes = 1 mod 8 up to the limit still each get their root
    assert len(calls) == 1 + sum(
        1 for p in factor.primerange(3, 10**4 + 1) if p % 24 == 1
    )


def test_sieve_roots_raise_when_a_residue_class_loses_its_root(monkeypatch):
    real = witness.square_roots

    def losing(c, p):
        return () if p == 97 else real(c, p)

    monkeypatch.setattr(witness, "square_roots", losing)
    # 73 is the first prime = 1 mod 24 and decides the class: -6 is a square
    # there. 97 is in the same class, so its lost root is caught, not dropped
    with pytest.raises(InternalInvariantError, match="unlike its class"):
        list(witness._sieve_roots(6, 10**4))
    # above the table rule each prime stands alone: -10^12 = -(10^6)^2 is a
    # square mod 97, and the per-prime path has nothing to compare against
    assert 97 not in dict(witness._sieve_roots(10**12, 10**4))


def test_json_report_shape():
    doc = sign_change_report(6, 100).to_json_dict()
    assert doc == {
        "d": "6",
        "bound": "100",
        "count_minus": doc["count_minus"],
        "count_plus": doc["count_plus"],
        "first_change_n": "1",
    }


def test_constructive_identity_before_factoring():
    # every constructive witness satisfies n^2 + d = (core * M) * k^2 with
    # the square-free part known exactly; spot-check by reconstructing k
    cert = plan(6).certificate
    w = minus_witnesses(6, 1)[0]
    known = 6 * cert.M
    k_sq, rem = divmod(w.value, known)
    assert rem == 0
    k = factorize(k_sq)
    assert all(e % 2 == 0 for _, e in k.factors)


# n of the first four points of each constructive stream; n^2 + d is the value
ORBIT_PINS = {
    (6, 1): ("direct_pell", [12, 120, 1188, 11760]),
    (-5, -1): ("negative_pell", [5, 85, 1525, 27365]),
    (6, -1): ("certificate", [708, 236598732, 79066091061588, 26422148178542755932]),
    (-6, -1): (
        "certificate",
        [
            9078303164666103024,
            498795797687913781016171535042610411221210491936584356144,
            27405699421833848283235883965851787660399160796823303794207888928719735961629888948871800567984,
            1505771227988240941968281740092974058420098161421234421535480539555206801632695539366061436046881473268016759895449136726407819877744,
        ],
    ),
    (-3, -1): ("prime_pair", [1512, 4608861768, 14048686352598408, 42823065253122332419752]),
    (54, -1): ("scaled", [2124, 709796196, 237198273184764, 79266444535628267796]),
    (-24, -1): (
        "scaled",
        [
            18156606329332206048,
            997591595375827562032343070085220822442420983873168712288,
            54811398843667696566471767931703575320798321593646607588415777857439471923259777897743601135968,
            3011542455976481883936563480185948116840196322842468843070961079110413603265391078732122872093762946536033519790898273452815639755488,
        ],
    ),
}


@pytest.mark.parametrize("d, want", sorted(ORBIT_PINS))
def test_constructive_stream_orbit_pins(d, want):
    provenance, ns = ORBIT_PINS[d, want]
    points = []
    for w, known, k in witness._constructive_stream(plan(d), want):
        assert (w.provenance, w.verified, w.lambda_value) == (provenance, False, want)
        assert w.value == known.value * k * k
        points.append((w.n, w.value))
        if len(points) == 4:
            break
    assert points == [(n, n * n + d) for n in ns]


def test_plan_and_stream_factor_d_once(monkeypatch):
    # the plan keeps the factorization of d; neither its branch nor the
    # stream's known part factors d, its core or its scale again
    d, calls = 10**40 + 1, []
    real = factor.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(factor, "factorize", counting)
    monkeypatch.setattr(witness, "factorize", counting)
    plan.cache_clear()
    plan(d)
    assert calls == [d]
    plan.cache_clear()
    calls.clear()
    assert [w.provenance for w in plus_witnesses(d, 1)] == ["direct_pell"]
    assert calls.count(d) == 1
    # the minus request builds the plan's certificate from the primes of the
    # plan's factorization; the construction is out of reach, so the scan answers
    for signed, branch in ((d, BRANCH_COMPOSITE_CERT_PLUS), (-d, BRANCH_COMPOSITE_CERT_MINUS)):
        plan.cache_clear()
        calls.clear()
        assert [w.provenance for w in minus_witnesses(signed, 1)] == ["brute"]
        assert calls.count(d) + calls.count(-d) == 1
        assert plan(signed).branch == branch


def test_brute_scan_reads_the_plans_factorization_at_zero(monkeypatch):
    # for d > 0 the scan starts at n = 0, where n^2 + d = d: plan(d) holds
    # its factorization, whatever the request's budget
    calls = []
    real = factor.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(factor, "factorize", counting)
    monkeypatch.setattr(witness, "factorize", counting)
    at_zero = Witness(4, 0, 4, Factorization(1, ((2, 2),)), 1, "brute", True)
    for request, budget, factored in [
        (plus_witnesses, DEFAULT_FACTOR_BUDGET, 1),
        (plus_witnesses, None, 1),
        (minus_witnesses, DEFAULT_FACTOR_BUDGET, 1),
        (plus_witnesses, 1, 1),
    ]:
        plan.cache_clear()
        calls.clear()
        found = request(4, 1, budget=budget)
        assert calls.count(4) == factored
        if request is plus_witnesses:
            assert found == [at_zero]
