"""Unit tests for certificate construction and independent re-verification."""

import json
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouwit import (
    GeneralizedSolution,
    InvalidInputError,
    M_CLAUSES,
    PAIR_CLAUSES,
    QuadForm,
    ResidueClass,
    SymbolTarget,
    construct_M,
    construct_prime_pair,
    is_prime,
    jacobi,
    mod8_class,
    next_prime_in_class,
    ordered_prime_list,
    residue_constraints,
    symbol_targets,
    verify_certificate,
    verify_prime_pair,
    with_checks,
)
from liouwit.verify import CERTIFICATE_KINDS, verify_document


def test_ordered_prime_list():
    assert ordered_prime_list(6) == (3, 2)
    assert ordered_prime_list(15) == (3, 5)
    assert ordered_prime_list(30) == (3, 5, 2)
    assert ordered_prime_list(105) == (3, 5, 7)
    with pytest.raises(InvalidInputError):
        ordered_prime_list(7)  # prime
    with pytest.raises(InvalidInputError):
        ordered_prime_list(12)  # not square-free
    with pytest.raises(InvalidInputError):
        ordered_prime_list(1)


def test_mod8_class():
    assert mod8_class("e1", 2, 1) == 7
    assert mod8_class("e2", 2, 1) == 3
    assert mod8_class("e2", 2, -1) == 5
    assert mod8_class("m1", 2, 1) == 5  # last m slot
    assert mod8_class("m1", 3, 1) == 1
    assert mod8_class("m2", 3, 1) == 5


def test_symbol_targets_d6():
    targets = symbol_targets((3, 2), 1, 1)
    as_tuples = [(t.top, t.bottom_slot, t.target, t.implied) for t in targets]
    assert as_tuples == [
        (3, "m1", -1, False),
        (3, "e1", -1, False),
        (3, "e2", 1, False),
        (2, "m1", -1, True),
        (2, "e1", 1, True),
        (2, "e2", -1, True),
    ]


def test_symbol_targets_d15_both_signs():
    # r = 2 and lambda(d) = +1: s = -t throughout
    plus = symbol_targets((3, 5), 1, 1)
    assert [(t.top, t.bottom_slot, t.target) for t in plus] == [
        (3, "m1", -1),
        (3, "e1", -1),
        (3, "e2", 1),
        (5, "m1", -1),
        (5, "e1", 1),
        (5, "e2", -1),
    ]
    minus = symbol_targets((3, 5), -1, 1)
    assert [(t.top, t.bottom_slot, t.target) for t in minus] == [
        (3, "m1", -1),
        (3, "e1", 1),
        (3, "e2", -1),
        (5, "m1", -1),
        (5, "e1", 1),
        (5, "e2", -1),
    ]


@pytest.mark.parametrize("r", range(2, 13))
def test_symbol_targets_multiply_to_the_consequences(r):
    # the verifier derives (d/m_i) = 1, (d/e) = s and (p/M) = 1 from the table:
    # each is the product of one column or one row of the targets
    odd = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for d_primes in (odd[:r], odd[: r - 1] + (2,)):
        for t in (1, -1) if r % 2 == 0 else (-1,):
            columns, rows = {}, {}
            for tgt in symbol_targets(d_primes, t, (-1) ** r):
                columns[tgt.bottom_slot] = columns.get(tgt.bottom_slot, 1) * tgt.target
                rows[tgt.top] = rows.get(tgt.top, 1) * tgt.target
            s = -t
            assert columns == {**{f"m{i}": 1 for i in range(1, r)}, "e1": s, "e2": s}
            assert rows == dict.fromkeys(d_primes, 1)


def test_symbol_targets_rejects():
    with pytest.raises(InvalidInputError):
        symbol_targets((3,), 1, -1)  # r < 2
    with pytest.raises(InvalidInputError):
        symbol_targets((3, 3), 1, 1)  # duplicate
    with pytest.raises(InvalidInputError):
        symbol_targets((3, 5), 0, 1)  # bad t
    with pytest.raises(InvalidInputError):
        symbol_targets((3, 5), 1, -1)  # lambda inconsistent with r
    with pytest.raises(InvalidInputError):
        symbol_targets((3, 5, 7), 1, -1)  # t = +1 forbidden for lambda = -1
    with pytest.raises(InvalidInputError):
        symbol_targets((2, 3), 1, 1)  # 2 must come last


def test_residue_constraints_e2_of_d6():
    # reproduces the slot search space of the d = 6, t = +1 construction:
    # hard class from mod 8 and the pinned symbol mod 3, symbol filters
    # (e2 / 5) = 1 and (e2 / 31) = -1
    constraint = residue_constraints(
        "e2",
        3,
        (SymbolTarget(3, "e2", 1), SymbolTarget(5, "e2", 1)),
        ((31, -1),),
    )
    assert constraint.hard == ResidueClass(11, 24)
    assert constraint.filters == ((5, 1), (31, -1))


def test_residue_constraints_with_a_42_digit_top():
    # the largest prime of d = 10^52 + 1 as a filter: one modular power per
    # candidate, whatever the size of the prime
    top = (10**52 + 1) // (73 * 137 * 1_580_801)
    for target in (1, -1):
        constraint = residue_constraints("e1", 3, (SymbolTarget(top, "e1", target),))
        assert constraint.filters == ((top, target),)  # top = 1 mod 4: no flip
        got = next_prime_in_class(constraint.hard, filters=constraint.filters)
        assert got == next(
            q for q in range(3, 10**4, 8) if is_prime(q) and jacobi(top, q) == target
        )


def test_construct_m_d6_plus_regression():
    cert = construct_M(6, 1)
    assert cert.d_primes == (3, 2)
    assert (cert.m_primes, cert.e1, cert.e2) == ((5,), 31, 11)
    assert cert.M == 1705
    assert cert.D == 10230
    assert (cert.lambda_d, cert.lambda_m, cert.s) == (1, -1, -1)
    assert cert.predicted_form == QuadForm(1705, 0, -6)
    assert cert.pell_evidence == GeneralizedSolution(1705, 6, 1, 7, 118)


def test_construct_m_d6_minus_regression():
    cert = construct_M(6, -1)
    assert (cert.m_primes, cert.e1, cert.e2) == ((5,), 71, 149)
    assert cert.M == 52895
    assert cert.predicted_form == QuadForm(6, 0, -52895)
    ev = cert.pell_evidence
    assert (ev.a, ev.b, ev.eps) == (6, 52895, 1)
    assert (ev.x, ev.y) == (1513050527444350504, 16114682221809169)


def test_construct_m_d15_plus_regression():
    # d t = 3 mod 4: the first admissible e2 values leave the predicted
    # equation insoluble (the principal class lands on a half form), so the
    # construction advances e2 deterministically until it is solvable
    cert = construct_M(15, 1)
    assert (cert.m_primes, cert.e1, cert.e2) == ((53,), 199, 2027)
    assert cert.M == 21378769
    ev = cert.pell_evidence
    assert (ev.a, ev.b, ev.eps) == (21378769, 15, 1)
    assert ev.x == 1483679915215379765233044954168104690912
    assert ev.y == 1771274765318191038546907293917684607854953


def test_construct_m_d15_minus_regression():
    cert = construct_M(15, -1)
    assert (cert.m_primes, cert.e1, cert.e2) == ((53,), 311, 293)
    assert cert.M == 4829519
    ev = cert.pell_evidence
    assert (ev.a, ev.b, ev.eps) == (15, 4829519, 1)
    assert 15 * ev.x * ev.x - cert.M * ev.y * ev.y == 1


def test_construct_m_three_prime_d30():
    cert = construct_M(30, -1)
    assert cert.d_primes == (3, 5, 2)
    assert (cert.m_primes, cert.e1, cert.e2) == ((17, 101), 223, 2141)
    assert cert.M == 17 * 101 * 223 * 2141
    assert cert.lambda_d == -1 and cert.lambda_m == 1


def test_construct_m_determinism():
    a = construct_M(6, 1)
    b = construct_M(6, 1)
    assert a == b
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_construct_m_rejects():
    with pytest.raises(InvalidInputError):
        construct_M(7, 1)  # prime
    with pytest.raises(InvalidInputError):
        construct_M(12, 1)  # not square-free
    with pytest.raises(InvalidInputError):
        construct_M(6, 0)
    with pytest.raises(InvalidInputError):
        construct_M(30, 1)  # lambda(30) = -1 forces t = -1


# the wire format: sign fields are JSON ints, every other integer a string
PINNED_JSON = [
    (
        lambda: construct_M(6, 1),
        '{"D": "10230", "M": "1705", "checks": [], "d": "6", "d_primes": ["3", "2"], '
        '"e1": "31", "e2": "11", "kind": "m_certificate", "lambda_d": 1, '
        '"lambda_m": -1, "m_primes": ["5"], "pell_evidence": {"a": "1705", '
        '"b": "6", "eps": 1, "x": "7", "y": "118"}, "predicted_form": {"a": "1705", '
        '"b": "0", "c": "-6"}, "s": -1, "t": 1}',
    ),
    (
        lambda: construct_M(30, -1),
        '{"D": "24593088930", "M": "819769631", "checks": [], "d": "30", '
        '"d_primes": ["3", "5", "2"], "e1": "223", "e2": "2141", '
        '"kind": "m_certificate", "lambda_d": -1, "lambda_m": 1, '
        '"m_primes": ["17", "101"], "pell_evidence": {"a": "30", "b": "819769631", '
        '"eps": 1, "x": "40169946997685948970777861326187106241645743463436122076400'
        "2409719012790891859099295627092012961086528079041592654448505455468878940790"
        "2205465411152084205946453805234420355394706947194209691907962434971537836562"
        '3486527666853840450238336692920027335960865624", "y": "7684506341209589915'
        "3313725865798221914943760523496424853577587571755602038711461034729737914913"
        "7574707249223391733758641475117210813863612964011263061394688253035969167124"
        "9673872245485957191786148477094003253138016362528236988309725071905385751665"
        '737647"}, "predicted_form": {"a": "30", "b": "0", "c": "-819769631"}, '
        '"s": 1, "t": -1}',
    ),
    (
        lambda: construct_prime_pair(3),
        '{"D": "429", "checks": [], "e1": "11", "e2": "13", "evidence": {"a": "3", '
        '"b": "143", "eps": 1, "x": "504", "y": "73"}, "kind": "prime_pair_certificate", '
        '"m": "143", "p": "3", "predicted_form": {"a": "3", "b": "0", "c": "-143"}}',
    ),
]


@pytest.mark.parametrize("build,pinned", PINNED_JSON, ids=["M-6-1", "M-30--1", "pair-3"])
def test_certificate_json_roundtrip(build, pinned):
    cert = build()
    assert json.dumps(cert.to_json_dict(), sort_keys=True) == pinned
    codec, verify = CERTIFICATE_KINDS[cert.kind]
    assert codec is type(cert)
    for c in (cert, with_checks(cert, verify(cert))):
        assert codec.from_json_dict(json.loads(json.dumps(c.to_json_dict()))) == c
    with pytest.raises(InvalidInputError):
        codec.from_json_dict({"d": "6"})


def test_verify_certificate_passes_and_notes():
    report = verify_certificate(construct_M(6, 1))
    assert report.passed
    assert tuple(c.name for c in report.clauses) == M_CLAUSES
    genus = report.clauses[5]
    assert genus.name == "genus_uniqueness"
    assert genus.detail == "30 split and 0 half candidates scanned"


def test_verify_certificate_records_half_companions():
    # d t = 3 mod 4: two half candidates share the principal genus with the
    # predicted split; they are reported in the clause note, not failed
    report = verify_certificate(construct_M(15, 1))
    assert report.passed
    genus = report.clauses[5]
    assert genus.detail == (
        "30 split and 32 half candidates scanned; principal-genus half "
        "candidates ['(10, 10, -32068151)', '(213787690, 213787690, 53446921)']"
    )


def test_verify_certificate_no_halves_outside_3mod4():
    # t = -1 makes D = 1 mod 4 here, so the half family is empty
    report = verify_certificate(construct_M(15, -1))
    assert report.passed
    assert report.clauses[5].detail == "30 split and 0 half candidates scanned"


M_TAMPER_CASES = [
    ("d", 10, "primality_congruence"),
    ("d_primes", (2, 3), "primality_congruence"),
    ("t", -1, "primality_congruence"),
    ("s", 1, "primality_congruence"),
    ("lambda_d", -1, "lambda_flip"),
    ("lambda_m", 1, "lambda_flip"),
    ("m_primes", (13,), "primality_congruence"),
    ("e1", 7, "primality_congruence"),
    ("e2", 13, "primality_congruence"),
    ("M", 1705 * 3, "primality_congruence"),
    ("D", 10230 * 2, "primality_congruence"),
    ("predicted_form", QuadForm(341, 0, -30), "primality_congruence"),
    ("pell_evidence", GeneralizedSolution(1705, 6, 1, 7, 119), "pell_evidence"),
    # a continued fraction of this D would not finish; the gate keeps it unrun
    ("D", 10**40 + 7, "primality_congruence"),
    # no rho budget splits this d; the verifier reads d_primes and never tries
    ("d", (10**39 + 3) * (2 * 10**39 + 11), "primality_congruence"),
]


def assert_gated(report, clause):
    """With the structural clause failed, no clause but the evidence is run."""
    details = {c.name: c.detail for c in report.clauses}
    names = tuple(details)
    for name in names[1:-1]:
        assert details[name] == f"depends on {clause}"
        assert name in report.failures


@pytest.mark.parametrize("field,value,clause", M_TAMPER_CASES)
def test_verify_certificate_tamper(field, value, clause):
    cert = replace(construct_M(6, 1), **{field: value})
    report = verify_certificate(cert)
    assert not report.passed
    assert clause in report.failures
    if clause == "primality_congruence":
        assert_gated(report, clause)
    if clause == "pell_evidence":
        details = {c.name: c.detail for c in report.clauses}
        assert details["unit_norm"] == "depends on pell_evidence"


@pytest.mark.parametrize(
    "d_primes",
    [(6,), (1, 3, 2), (2, 3), (3, 3, 2), (-3, -2)],
    ids=["one-composite", "unit", "order", "repeated", "negative"],
)
def test_verify_certificate_checks_stored_d_primes(d_primes):
    # d stays 6 and is never factored; only the stored list can be wrong
    cert = construct_M(6, 1)
    report = verify_certificate(replace(cert, d_primes=d_primes))
    assert "primality_congruence" in report.failures
    assert_gated(report, "primality_congruence")


def test_lambda_flip_names_d_primes_not_lambda_d():
    # d_primes = (6,) gives -1, but lambda(6) = 1: the gate refuses the list,
    # and lambda_flip does not read its parity as the true lambda(d)
    report = verify_certificate(replace(construct_M(6, 1), d_primes=(6,)))
    detail = {c.name: c.detail for c in report.clauses}["lambda_flip"]
    assert detail == "depends on primality_congruence"
    assert "lambda(6)" not in report.summary()
    # once the gate holds, the detail names the d_primes it counted
    report = verify_certificate(replace(construct_M(6, 1), lambda_d=-1))
    assert report.failures == ("lambda_flip",)
    detail = {c.name: c.detail for c in report.clauses}["lambda_flip"]
    assert detail == "lambda_d = -1, but the 2 d_primes give 1"


def test_verify_certificate_tampered_symbols():
    # e1 = 47 keeps the residue class 7 mod 8 and all derived products
    # consistent, but violates the table target (3 / e1) = -1
    cert = construct_M(6, 1)
    tampered = replace(
        cert,
        e1=47,
        M=5 * 47 * 11,
        D=6 * 5 * 47 * 11,
        predicted_form=QuadForm(5 * 47 * 11, 0, -6),
        pell_evidence=GeneralizedSolution(5 * 47 * 11, 6, 1, 7, 118),
    )
    report = verify_certificate(tampered)
    assert "primality_congruence" not in report.failures
    assert "symbol_table" in report.failures
    details = {c.name: c.detail for c in report.clauses}
    assert details["consequences"] == "depends on symbol_table"


def test_with_checks():
    cert = construct_M(6, 1)
    report = verify_certificate(cert)
    stamped = with_checks(cert, report)
    assert stamped.checks == report.as_pairs()
    assert all(ok for _, ok in stamped.checks)
    assert len(stamped.checks) == len(M_CLAUSES)


def test_construct_prime_pair_regressions():
    cert3 = construct_prime_pair(3)
    assert (cert3.e1, cert3.e2, cert3.m, cert3.D) == (11, 13, 143, 429)
    assert cert3.predicted_form == QuadForm(3, 0, -143)
    assert (cert3.evidence.x, cert3.evidence.y) == (504, 73)

    cert7 = construct_prime_pair(7)
    assert (cert7.e1, cert7.e2) == (3, 29)
    assert (cert7.evidence.x, cert7.evidence.y) == (208, 59)


def test_construct_prime_pair_rejects():
    with pytest.raises(InvalidInputError):
        construct_prime_pair(5)  # 1 mod 4
    with pytest.raises(InvalidInputError):
        construct_prime_pair(9)  # not prime


def test_verify_prime_pair_passes():
    report = verify_prime_pair(construct_prime_pair(3))
    assert report.passed
    assert tuple(c.name for c in report.clauses) == PAIR_CLAUSES


PAIR_TAMPER_CASES = [
    ("p", 7, "structure"),
    ("e1", 13, "structure"),
    ("e2", 11, "structure"),
    ("m", 144, "structure"),
    ("D", 430, "structure"),
    ("predicted_form", QuadForm(11, 0, -39), "structure"),
    ("evidence", GeneralizedSolution(3, 143, 1, 504, 74), "evidence"),
]


@pytest.mark.parametrize("field,value,clause", PAIR_TAMPER_CASES)
def test_verify_prime_pair_tamper(field, value, clause):
    cert = replace(construct_prime_pair(3), **{field: value})
    report = verify_prime_pair(cert)
    assert not report.passed
    assert clause in report.failures
    if clause == "structure":
        assert_gated(report, clause)
    if clause == "evidence":
        details = {c.name: c.detail for c in report.clauses}
        assert details["unit_norm"] == "depends on evidence"


def test_verify_prime_pair_wrong_symbols():
    # e1 = 19 is prime and 3 mod 4 but has (3 / 19) = -1
    cert = construct_prime_pair(3)
    tampered = replace(
        cert,
        e1=19,
        m=19 * 13,
        D=3 * 19 * 13,
        predicted_form=QuadForm(3, 0, -19 * 13),
        evidence=GeneralizedSolution(3, 19 * 13, 1, 504, 73),
    )
    report = verify_prime_pair(tampered)
    assert not report.passed
    assert "symbols" in report.failures


def test_report_summary_format():
    report = verify_certificate(construct_M(6, 1))
    text = report.summary()
    assert text.splitlines()[0] == "verification of certificate:"
    assert all(
        line.strip().startswith("pass") for line in text.splitlines()[1:]
    )
    bad = verify_certificate(replace(construct_M(6, 1), e2=13))
    assert "FAIL" in bad.summary()


def test_genus_clause_assigns_the_characters_once(monkeypatch):
    from liouwit import verify

    cert = construct_M(210, -1)
    calls = []
    real = verify.character_system

    def counting(D, primes):
        calls.append(D)
        return real(D, primes)

    monkeypatch.setattr(verify, "character_system", counting)
    assert verify_certificate(cert).passed
    assert calls == [cert.D]


@pytest.mark.parametrize(
    "build",
    [lambda: construct_M(6, 1), lambda: construct_prime_pair(7)],
    ids=["m_certificate_6", "prime_pair_7"],
)
def test_genus_clause_factors_nothing(monkeypatch, build):
    # the gate has tied the certificate's primes to D, so the clause reads them
    from liouwit import factor, forms, genus, verify

    cert = build()
    expected = verify._clause_genus(cert)
    calls = []
    real = factor.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    for module in (factor, forms, genus, verify):
        monkeypatch.setattr(module, "factorize", counting, raising=False)
    assert verify._clause_genus(cert) == expected
    assert calls == []


@pytest.mark.parametrize(
    "build,pinned",
    [
        (lambda: construct_M(6, 1), ([], "30 split and 0 half candidates scanned")),
        (
            lambda: construct_M(15, 1),
            (
                [],
                "30 split and 32 half candidates scanned; principal-genus half "
                "candidates ['(10, 10, -32068151)', '(213787690, 213787690, 53446921)']",
            ),
        ),
        (lambda: construct_prime_pair(7), ([], "6 split and 0 half candidates scanned")),
    ],
    ids=["m_certificate_6", "m_certificate_15", "prime_pair_7"],
)
def test_genus_clause_searches_no_represented_value(monkeypatch, build, pinned):
    # every candidate's genus is read off one table of Legendre symbols among
    # the k primes of D: no value is searched for, k^2 + k symbols at most
    from liouwit import arith, forms, genus, verify

    cert = build()
    k = len(cert.identity[1])
    calls = {"jacobi": 0, "represented_value_coprime": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        for module in (arith, forms, genus, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert verify._clause_genus(cert) == pinned
    assert calls["represented_value_coprime"] == 0
    assert 0 < calls["jacobi"] <= k * k + k


@pytest.mark.parametrize(
    "build,verify",
    [
        (lambda: construct_M(6, 1), verify_certificate),
        (lambda: construct_M(210, -1), verify_certificate),
        (lambda: construct_prime_pair(7), verify_prime_pair),
    ],
    ids=["m_certificate_6", "m_certificate_210", "prime_pair_7"],
)
def test_verifier_runs_no_continued_fraction(monkeypatch, build, verify):
    # unit_norm is derived from the gate and the evidence, so the verifier
    # expands no sqrt(D), even with the Pell cache cold
    from liouwit import pell

    cert = build()
    pell.fundamental_solution.cache_clear()
    calls = []
    real = pell.cf_sqrt

    def counting(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(pell, "cf_sqrt", counting)
    assert verify(cert).passed
    assert calls == []


@cache
def _tamper_subjects() -> tuple[str, ...]:
    """Documents, with their clause outcomes, of three m- and two pair certificates."""
    certs = [construct_M(6, 1), construct_M(30, -1), construct_M(10, -1)]
    certs += [construct_prime_pair(3), construct_prime_pair(7)]
    docs = []
    for cert in certs:
        verify = CERTIFICATE_KINDS[cert.kind][1]
        docs.append(json.dumps(with_checks(cert, verify(cert)).to_json_dict()))
    return tuple(docs)


def _value_fields(doc: dict) -> list[tuple]:
    """(container key, index or name) of every value-bearing entry of a document."""
    found = []
    for key, value in doc.items():
        if isinstance(value, list):
            found += [(key, i) for i in range(len(value))]
        elif isinstance(value, dict):
            found += [(key, name) for name in value]
        elif key != "kind":
            found.append((None, key))
    return found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_tampered_document_never_verifies(data):
    # one value changed anywhere (an integer, a list entry, a sign field, a
    # coordinate of the form or the evidence, or one recorded clause outcome):
    # the document is refused as malformed or fails a clause, nothing else
    doc = json.loads(data.draw(st.sampled_from(_tamper_subjects())))
    key, name = data.draw(st.sampled_from(_value_fields(doc)))
    holder = doc if key is None else doc[key]
    old = holder[name]
    if key == "checks":
        old["passed"] = not old["passed"]
    else:
        new = data.draw(st.integers(-(2**256), 2**256).filter(lambda v: v != int(old)))
        holder[name] = new if isinstance(old, int) else str(new)
    try:
        report = verify_document(doc)
    except InvalidInputError:
        return
    assert not report.passed, (key, name)
