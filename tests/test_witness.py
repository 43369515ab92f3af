"""Unit tests for witness generation and the exhaustive sign reports."""

import pytest

from liouwit import (
    BRUTE_SCAN_BOUND,
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
    scale_witness,
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


def test_to_json_dict():
    w = minus_witnesses(6, 1)[0]
    doc = w.to_json_dict()
    assert doc["n"] == "708"
    assert doc["lambda"] == -1
    assert doc["verified"] is True
    assert ["2", 1] in doc["factorization"]["factors"]

    unverified = Witness(6, 708, 501270, None, -1, "certificate", False)
    assert unverified.to_json_dict()["factorization"] is None


def test_scale_witness():
    base = minus_witnesses(6, 1)[0]
    lifted = scale_witness(base, 3)
    assert (lifted.d, lifted.n, lifted.value) == (54, 2124, 4511430)
    assert lifted.provenance == "scaled"
    assert lifted.factorization.value == lifted.value
    assert scale_witness(base, 1) is base
    with pytest.raises(InvalidInputError):
        scale_witness(base, 0)


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
