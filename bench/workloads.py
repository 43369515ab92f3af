"""Request sets and output checks of the four benchmark workloads.

Request lists are plain JSON-able lists made from the seed, so the runner
can hand them to a fresh worker interpreter. The seed sets the request
order, and draws inputs only where the draw hardly changes cost: the
sign-sieve `d` values and the field each tampered certificate gets.

The checks here never use liouwit to judge liouwit: factors are tested
with sympy, sign counts against a trial-division loop, and certificates
against the clause a tamper must trip.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("witness-sweep", "sign-sieve", "certify", "cli-cold")

# A single witness-sweep request mostly takes about 0.1 ms, too short to
# time steadily, so there the whole request set is the one timing op.
WHOLE_SET_OPS = ("witness-sweep",)

SIZES = {
    "full": {
        # every 0 < |d| <= K; K >= 10 keeps the hopeless Pell coordinates
        # of d = -6 and d = -10 in the set
        "witness_k": 12,
        "witness_count": 3,
        "sieve_bound": 10**5,
        "sieve_draws": 5,
        "sieve_big_bound": 3 * 10**5,
        "sieve_check_bound": 1000,
        "certify_n": 340,
        "certify_prime_bound": 340,
        "cli_full": True,
        "cli_deadline_s": 5.0,
        "setup_probes": 5,
    },
    # tiny sizes for the smoke test; never used for measurement
    "smoke": {
        "witness_k": 2,
        "witness_count": 2,
        "sieve_bound": 2000,
        "sieve_draws": 1,
        "sieve_big_bound": 6000,
        "sieve_check_bound": 300,
        "certify_n": 30,
        "certify_prime_bound": 20,
        "cli_full": False,
        "cli_deadline_s": 5.0,
        "setup_probes": 1,
    },
}

# README: `liouwit sign-report 6 --bound 100000` gives 49934 / 50067
PINNED_SIGN_COUNTS = {(6, 10**5): (49934, 50067)}
SIEVE_FIXED_D = 6

# Negative squares d = -m^2 make n^2 + d = (n - m)(n + m) and sieve two to
# three times faster than other d, so a draw among them would move the cost.
SIEVE_POOL = tuple(
    d for d in range(-50, 51)
    if d not in (0, SIEVE_FIXED_D) and not (d < 0 and math.isqrt(-d) ** 2 == -d)
)

# Known defects the benchmark counts as failures; see README.md.
DEFECT_INT_STR = "int_str_limit"
DEFECT_VERIFY_HANG = "verifier_hang"
DEFECT_CF_UNBOUNDED = "cf_unbounded"
KNOWN_DEFECTS = (DEFECT_INT_STR, DEFECT_VERIFY_HANG, DEFECT_CF_UNBOUNDED)
INT_STR_MESSAGE = "Exceeds the limit"


# --- request sets -------------------------------------------------------


def _squarefree_prime_count(d: int) -> int | None:
    """Number of prime factors of d > 1 when d is square-free, else None."""
    count, m, p = 0, d, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return None
            count += 1
        p += 1
    return count + (m > 1)


def _is_small_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


# Tamper transforms on a certificate document, with the clause that must
# then fail. None of them touches D, so a tampered verify costs what a
# clean verify costs whichever field the seed draws.
M_TAMPERS = {
    "s": ("primality_congruence", lambda doc: doc.update(s=doc["t"])),
    "lambda_d": ("lambda_flip", lambda doc: doc.update(lambda_d=-doc["lambda_d"])),
    "lambda_m": ("lambda_flip", lambda doc: doc.update(lambda_m=-doc["lambda_m"])),
    "M": ("primality_congruence", lambda doc: doc.update(M=str(int(doc["M"]) + 2))),
    "predicted_form": (
        "primality_congruence",
        lambda doc: doc.update(predicted_form={
            "a": str(-int(doc["predicted_form"]["c"])),
            "b": "0",
            "c": str(-int(doc["predicted_form"]["a"])),
        }),
    ),
    "pell_evidence": (
        "pell_evidence",
        lambda doc: doc["pell_evidence"].update(y=str(int(doc["pell_evidence"]["y"]) + 1)),
    ),
}

PAIR_TAMPERS = {
    "m": ("structure", lambda doc: doc.update(m=str(int(doc["m"]) + 2))),
    "e1": ("structure", lambda doc: doc.update(e1=str(int(doc["e1"]) + 4))),
    "predicted_form": (
        "structure",
        lambda doc: doc.update(predicted_form={"a": doc["m"], "b": "0", "c": str(-int(doc["p"]))}),
    ),
    "evidence": (
        "evidence",
        lambda doc: doc["evidence"].update(y=str(int(doc["evidence"]["y"]) + 1)),
    ),
}

# only the CLI re-checks the stored clause outcomes
CLI_TAMPERS = dict(M_TAMPERS)
CLI_TAMPERS["checks"] = (
    "recorded_checks",
    lambda doc: doc["checks"][0].update(passed=False),
)
# ROADMAP item 3: verify on the d = 6 certificate with D = 10^40 + 7 hangs
HANG_TAMPER = (
    "primality_congruence",
    lambda doc: doc.update(D=str(10**40 + 7)),
)


def tamper(doc: dict, table: dict, field: str) -> tuple[dict, str]:
    """Deep copy of `doc` with `field` broken, and the clause that must fail."""
    clause, change = table[field]
    copy = json.loads(json.dumps(doc))
    change(copy)
    return copy, clause


def requests(workload: str, seed: int, size: str = "full") -> list:
    """The request set of one repetition of `workload`."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    if workload == "witness-sweep":
        k = cfg["witness_k"]
        reqs = [[sign, d, cfg["witness_count"]] for d in range(-k, k + 1) if d for sign in (-1, 1)]
    elif workload == "sign-sieve":
        bound = cfg["sieve_bound"]
        drawn = rng.sample(SIEVE_POOL, cfg["sieve_draws"])
        reqs = [[d, bound] for d in [SIEVE_FIXED_D] + drawn]
        reqs.append([SIEVE_FIXED_D, cfg["sieve_big_bound"]])
    elif workload == "certify":
        reqs = []
        for d in range(6, cfg["certify_n"] + 1):
            primes = _squarefree_prime_count(d)
            if primes is None or primes < 2:
                continue
            # t = +1 needs lambda(d) = +1, an even number of primes
            ts = (-1, 1) if primes % 2 == 0 else (-1,)
            for t in ts:
                reqs.append(["M", d, t, rng.choice(sorted(M_TAMPERS))])
        for p in range(3, cfg["certify_prime_bound"], 4):
            if _is_small_prime(p):
                reqs.append(["P", p, 0, rng.choice(sorted(PAIR_TAMPERS))])
    elif workload == "cli-cold":
        return cli_requests(rng, cfg)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def cli_requests(rng: random.Random, cfg: dict) -> list[dict]:
    """CLI calls of one repetition; the certificate writer always runs first.

    Each call: argv after `liouwit`, the exit codes that count as success,
    the known defect it trips at the parent commit (or None), and a check
    name. "{cert}" and "{tampered:<field>}" name files the runner writes.
    """
    def call(argv, ok=(0,), defect=None, check=None):
        return {"argv": argv, "ok": list(ok), "defect": defect, "check": check}

    fields = rng.sample(sorted(CLI_TAMPERS), 2 if cfg["cli_full"] else 1)
    rest = [
        call(["lambda", "12", "--json"], check="lambda12"),
        call(["verify", "{cert}", "--json"], check="verified"),
        call(["witness", "-102", "--json"], defect=DEFECT_INT_STR, check="witness"),
    ]
    rest += [
        call(["verify", "{tampered:%s}" % f], ok=(3,), check="clause:" + CLI_TAMPERS[f][0])
        for f in fields
    ]
    if cfg["cli_full"]:
        rest += [
            call(["witness", "6", "--sign", "-1", "--count", "2", "--json"], check="witness"),
            call(["pell", "6", "--json"], check="pell6"),
            call(["genus", "6", "--form", "2,0,-3", "--json"], check="genus6"),
            call(["sign-report", "6", "--bound", "10000", "--json"], check="report6"),
            call(["construct-m", "102", "--t", "-1", "--json"], defect=DEFECT_INT_STR, check="cert"),
            # exit 4 is the documented refusal the roadmap asks for here
            call(["construct-m", "2310", "--t", "-1", "--json"], ok=(0, 4),
                 defect=DEFECT_CF_UNBOUNDED, check="cert"),
            call(["verify", "{tampered:D}"], ok=(3,), defect=DEFECT_VERIFY_HANG,
                 check="clause:" + HANG_TAMPER[0]),
        ]
    rng.shuffle(rest)
    first = call(["construct-m", "6", "--t", "1", "--output", "{cert}", "--json"], check="cert")
    return [first] + rest


# --- in-process requests ------------------------------------------------


def run_request(lw, workload: str, req: list):
    """Run one request against the liouwit module `lw`; return its output."""
    if workload == "witness-sweep":
        sign, d, count = req
        produce = lw.minus_witnesses if sign == -1 else lw.plus_witnesses
        return produce(d, count)
    if workload == "sign-sieve":
        d, bound = req
        return lw.sign_change_report(d, bound)
    if workload == "certify":
        kind, n, t, field = req
        if kind == "M":
            cert, codec, verify, table = lw.construct_M(n, t), lw.MCertificate, lw.verify_certificate, M_TAMPERS
        else:
            cert, codec, verify, table = (
                lw.construct_prime_pair(n), lw.PrimePairCertificate, lw.verify_prime_pair, PAIR_TAMPERS)
        doc = json.loads(json.dumps(cert.to_json_dict()))
        report = verify(codec.from_json_dict(doc))
        bad_doc, clause = tamper(doc, table, field)
        bad_report = verify(codec.from_json_dict(bad_doc))
        return report, bad_report, clause
    raise ValueError(f"{workload!r} has no in-process requests")


def cli_failure_cause(call: dict, timed_out: bool, code, stderr: str) -> str:
    """Known-defect name for a failed CLI call, or an 'unattributed' label."""
    defect = call["defect"]
    if defect == DEFECT_INT_STR and INT_STR_MESSAGE in stderr:
        return defect
    if defect == DEFECT_VERIFY_HANG and timed_out:
        return defect
    if defect == DEFECT_CF_UNBOUNDED and (timed_out or "MemoryError" in stderr):
        return defect
    if timed_out:
        return "unattributed: deadline"
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"unattributed: exit {code}: {last[0][:200]}"


def classify_exception(exc: BaseException) -> str:
    """Known-defect name for an exception, or an 'unattributed' label."""
    if isinstance(exc, ValueError) and INT_STR_MESSAGE in str(exc):
        return DEFECT_INT_STR
    return f"unattributed: {type(exc).__name__}: {str(exc)[:120]}"


# --- output checks ------------------------------------------------------


def _factor_problems(value: int, sign: int, factors, want: int) -> list[str]:
    from sympy import isprime

    problems = []
    if sign * math.prod(p**e for p, e in factors) != value:
        problems.append(f"factorization does not multiply back to {value}")
    if any(e < 1 or not isprime(p) for p, e in factors):
        problems.append(f"factorization of {value} has a non-prime factor")
    if (-1) ** sum(e for _, e in factors) != want:
        problems.append(f"factorization of {value} gives the wrong sign")
    return problems


def _witness_problems(d: int, want: int, count: int, rows) -> list[str]:
    """Problems with witnesses given as (d, n, value, lambda, verified, factorization)
    rows, where factorization is (sign, [(p, e), ...]) or None."""
    problems = []
    if sum(verified for *_, verified, _ in rows) < count:
        problems.append(f"fewer than {count} verified witnesses for d = {d}")
    if len({n for _, n, *_ in rows}) != len(rows):
        problems.append(f"repeated n for d = {d}")
    for wd, n, value, lam, verified, fact in rows:
        if wd != d or value != n * n + d:
            problems.append(f"value != n^2 + d at n = {n}, d = {d}")
        if lam != want:
            problems.append(f"wrong sign at n = {n}, d = {d}")
        if verified and fact is None:
            problems.append(f"verified witness without factorization at n = {n}")
        elif verified:
            problems += _factor_problems(value, fact[0], fact[1], want)
    return problems


def check_witnesses(d: int, want: int, count: int, witnesses) -> list[str]:
    """Problems with a list of liouwit Witness objects."""
    rows = [(w.d, w.n, w.value, w.lambda_value, w.verified,
             None if w.factorization is None else (w.factorization.sign, w.factorization.factors))
            for w in witnesses]
    return _witness_problems(d, want, count, rows)


def brute_sign_counts(d: int, bound: int) -> tuple[int, int, int | None]:
    """(count_minus, count_plus, first_change_n) by trial division."""
    primes = [p for p in range(2, math.isqrt(bound * bound + abs(d)) + 2) if _is_small_prime(p)]
    minus = plus = 0
    first = change = None
    for n in range(bound + 1):
        v = n * n + d
        if v < 1:
            continue
        omega = 0
        for p in primes:
            if p * p > v:
                break
            while v % p == 0:
                v //= p
                omega += 1
        omega += v > 1
        sign = -1 if omega % 2 else 1
        minus += sign == -1
        plus += sign == 1
        if first is None:
            first = sign
        elif change is None and sign != first:
            change = n
    return minus, plus, change


def check_sign_report(d: int, bound: int, report) -> list[str]:
    problems = []
    defined = sum(1 for n in range(bound + 1) if n * n + d >= 1)
    if (report.d, report.bound) != (d, bound):
        problems.append(f"report echoes ({report.d}, {report.bound}), asked ({d}, {bound})")
    if report.count_minus + report.count_plus != defined:
        problems.append(f"counts for d = {d} do not cover the {defined} defined values")
    pinned = PINNED_SIGN_COUNTS.get((d, bound))
    if pinned and (report.count_minus, report.count_plus) != pinned:
        problems.append(f"d = {d}, bound {bound}: counts differ from pinned {pinned}")
    return problems


def check_output(workload: str, req: list, output) -> list[str]:
    """Problems with the output of one in-process request (empty when correct)."""
    if workload == "witness-sweep":
        sign, d, count = req
        return check_witnesses(d, sign, count, output)
    if workload == "sign-sieve":
        d, bound = req
        return check_sign_report(d, bound, output)
    if workload == "certify":
        report, bad_report, clause = output
        problems = []
        if not report.passed:
            problems.append(f"{req[:3]} failed verification: {report.failures}")
        if clause not in bad_report.failures:
            problems.append(
                f"{req} tampered copy not rejected by {clause}: {bad_report.failures}")
        return problems
    raise ValueError(workload)


def witness_counts(witnesses) -> tuple[int, int, int]:
    """(returned, verified, verified and constructive) for a witness list.

    Works on Witness objects and on their JSON dicts alike.
    """
    def field(w, name):
        return w[name] if isinstance(w, dict) else getattr(w, name)

    verified = [w for w in witnesses if field(w, "verified")]
    constructive = [w for w in verified if field(w, "provenance") != "brute"]
    return len(witnesses), len(verified), len(constructive)


# --- CLI checks ----------------------------------------------------------


def check_cli(call: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with a CLI call that exited with a success code."""
    check = call["check"]
    if check.startswith("clause:"):
        clause = check.split(":", 1)[1]
        return [] if clause in stderr else [f"tampered certificate not rejected by {clause}"]
    if code != 0:
        return []  # a documented refusal such as exit 4
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{call['argv'][0]}: --json output does not parse"]
    if "schema_version" not in envelope:
        return [f"{call['argv'][0]}: envelope has no schema_version"]
    result = envelope.get("result", {})
    if check == "lambda12":
        ok = result.get("lambda") == -1 and result.get("factorization", {}).get("factors") == [["2", 2], ["3", 1]]
        return [] if ok else ["lambda 12 is not -1 with 12 = 2^2 * 3"]
    if check == "verified":
        return [] if result.get("verified") is True else ["verify did not accept the certificate"]
    if check == "cert":
        ok = result.get("kind") == "m_certificate" and all(c["passed"] for c in result.get("checks", [{}]))
        return [] if ok else ["construct-m did not return a passing certificate"]
    if check == "witness":
        echo = envelope["input"]
        rows = [(int(w["d"]), int(w["n"]), int(w["value"]), w["lambda"], w["verified"],
                 None if w["factorization"] is None else (
                     w["factorization"]["sign"],
                     [(int(p), e) for p, e in w["factorization"]["factors"]]))
                for w in result.get("witnesses", [])]
        return _witness_problems(int(echo["d"]), int(echo["sign"]), int(echo["count"]), rows)
    if check == "pell6":
        t, u = int(result["t"]), int(result["u"])
        return [] if (t, u) == (5, 2) else [f"pell 6 gave ({t}, {u}), want (5, 2)"]
    if check == "genus6":
        return [] if result.get("in_principal_genus") is False else ["(2, 0, -3) reported in the principal genus"]
    if check == "report6":
        cm, cp = result["count_minus"], result["count_plus"]
        ok = cm + cp == 10001 and result["first_change_n"] == "1"
        return [] if ok else ["sign-report 6 counts do not cover 0..10000 or miss the change at n = 1"]
    raise ValueError(f"unknown check {check!r}")
