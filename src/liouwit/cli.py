"""Command line interface.

Subcommands: lambda, construct-m, witness, genus, pell, sign-report, verify.
Every command can emit a JSON envelope {schema_version, command, input, result,
timing} with all big integers rendered as decimal strings; pell writes one above
the int-to-str digit limit as a "0x..." hex string, and its human view gives
such an integer by its bit length and a long cycle by its first ten terms and
its length; the human views of construct-m and witness give a huge integer by
its bit length too.  Each command imports the modules it runs when it runs, so
a process loads no module its command does not use.  Exit codes: 0 success,
2 invalid input, 3 verification failure, 4 resource cap exhausted, 5 internal
assertion violated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .arith import DEFAULT_PRIME_SEARCH_CAP
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    LiouwitError,
    SearchExhaustedError,
    VerificationError,
)
from .factor import BRUTE_SCAN_BOUND, DEFAULT_FACTOR_BUDGET, factorize

SCHEMA_VERSION = "1.1.0"

EXIT_OK = 0
EXIT_INVALID_INPUT = InvalidInputError.exit_code
EXIT_VERIFICATION_FAILURE = VerificationError.exit_code
EXIT_RESOURCE_CAP = SearchExhaustedError.exit_code
EXIT_INTERNAL_ASSERTION = InternalInvariantError.exit_code

# the human view of pell prints at most this many cycle terms; --json prints all
CF_TERMS_SHOWN = 10


def _json_int(n: int) -> str:
    """n as a decimal string, or "0x..." hex where decimal passes the int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


def _show_int(n: int) -> str:
    """n in decimal, or by its size where decimal passes the int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


def _fmt_factorization(fact) -> str:
    if not fact.factors:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fact.factors)


def cmd_lambda(args) -> tuple[dict, str]:
    n = args.n
    if n < 1:
        raise InvalidInputError(f"lambda is defined on positive integers, got {n}")
    fact = factorize(n, budget=args.budget)
    result = {
        "n": str(n),
        "lambda": fact.liouville,
        "big_omega": fact.big_omega,
        "factorization": fact.to_json_dict(),
    }
    human = f"lambda({n}) = {fact.liouville}\n{n} = {_fmt_factorization(fact)}"
    return result, human


def cmd_construct_m(args) -> tuple[dict | None, str]:
    from .construct import construct_M
    from .verify import verify_certificate, with_checks

    cert = construct_M(args.d, args.t, cap=args.cap)
    report = verify_certificate(cert)
    cert = with_checks(cert, report)
    if not report.passed:
        raise VerificationError(
            f"freshly constructed certificate failed verification: "
            f"{', '.join(report.failures)}\n{report.summary()}"
        )
    if args.output:
        text = json.dumps(cert.to_json_dict(), indent=2) + "\n"  # before the file opens
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    result = cert.to_json_dict() if args.json else None
    evidence = cert.pell_evidence
    human = "\n".join(
        [
            f"d = {cert.d}, t = {cert.t}: M = {cert.M} = "
            + " * ".join(str(q) for q in cert.m_primes + (cert.e1, cert.e2)),
            f"lambda(d) = {cert.lambda_d}, lambda(M) = {cert.lambda_m}",
            f"D = {cert.D}, predicted principal form {cert.predicted_form}",
            f"evidence: {evidence.a} * {_show_int(evidence.x)}^2 - "
            f"{evidence.b} * {_show_int(evidence.y)}^2 = 1",
            report.summary(),
        ]
    )
    return result, human


def cmd_witness(args) -> tuple[dict | None, str]:
    from .witness import minus_witnesses, plan, plus_witnesses

    shape = plan(args.d, args.cap)  # positional: the stream below reads this cached plan
    produce = minus_witnesses if args.sign == -1 else plus_witnesses
    witnesses = produce(
        args.d, args.count, cap=args.cap, budget=args.budget, scan_bound=args.scan_bound
    )
    lines = [f"d = {args.d}: branch {shape.branch}, core {shape.core}, scale {shape.scale}"]
    for w in witnesses:
        status = "verified" if w.verified else "UNVERIFIED (factor budget)"
        fact = _fmt_factorization(w.factorization) if w.factorization else "-"
        lines.append(
            f"n = {_show_int(w.n)}: lambda(n^2 + d) = lambda({_show_int(w.value)}) = "
            f"{w.lambda_value} [{w.provenance}, {status}] {fact}"
        )
    human = "\n".join(lines)
    if not args.json:
        return None, human
    plan_json = {
        "branch": shape.branch,
        "core": str(shape.core),
        "scale": str(shape.scale),
    }
    certificate = shape.certificate_for(args.sign)
    if certificate is not None:
        plan_json["certificate"] = certificate.to_json_dict()
    result = {
        "plan": plan_json,
        "witnesses": [w.to_json_dict() for w in witnesses],
    }
    return result, human


def cmd_genus(args) -> tuple[dict, str]:
    from .genus import assigned_characters, generic_values

    system = assigned_characters(args.D)
    result = {"D": str(args.D), "characters": list(system.labels)}
    lines = [f"assigned characters for D = {args.D}: {', '.join(system.labels)}"]
    if args.form:
        form = _parse_form(args.form)
        values = generic_values(form, system)
        result["form"] = {"a": str(form.a), "b": str(form.b), "c": str(form.c)}
        result["values"] = list(values.values)
        result["theta"] = str(values.witness_theta)
        result["theta_xy"] = [str(values.witness_xy[0]), str(values.witness_xy[1])]
        result["in_principal_genus"] = values.all_ones
        lines.append(
            f"form {form} represents theta = {values.witness_theta} at "
            f"(x, y) = {values.witness_xy}"
        )
        lines.append(
            "generic values: "
            + ", ".join(
                f"{label} = {value:+d}"
                for label, value in zip(system.labels, values.values)
            )
        )
        lines.append(f"in principal genus: {values.all_ones}")
    return result, "\n".join(lines)


def cmd_pell(args) -> tuple[dict, str]:
    from .pell import cf_sqrt, fundamental_from_cf, solve_generalized

    has_ab = args.a is not None or args.b is not None
    if has_ab:
        if args.a is None or args.b is None:
            raise InvalidInputError("--a and --b must be given together")
        if args.D is not None:
            raise InvalidInputError("give either D or --a/--b, not both")
        solution = solve_generalized(args.a, args.b, args.eps)
        result = {
            "a": str(args.a),
            "b": str(args.b),
            "eps": args.eps,
            "solution": None
            if solution is None
            else {"x": _json_int(solution.x), "y": _json_int(solution.y)},
        }
        if solution is None:
            human = f"{args.a} x^2 - {args.b} y^2 = {args.eps} has no solution"
        else:
            human = (
                f"{args.a} x^2 - {args.b} y^2 = {args.eps}: minimal solution "
                f"(x, y) = ({_show_int(solution.x)}, {_show_int(solution.y)})"
            )
        return result, human
    if args.D is None:
        raise InvalidInputError("give a discriminant D or --a/--b")
    expansion = cf_sqrt(args.D)
    fund = fundamental_from_cf(expansion)
    result = {
        "D": str(args.D),
        "t": _json_int(fund.t),
        "u": _json_int(fund.u),
        "unit_norm": fund.unit_norm,
        "neg_solution": None
        if fund.neg_solution is None
        else {"x": _json_int(fund.p), "y": _json_int(fund.q)},
        "cf_a0": str(expansion.a0),
    }
    if args.json:  # the human view prints only the first terms
        result["cf_cycle"] = [str(a) for a in expansion.cycle]
    head = expansion.terms[1 : CF_TERMS_SHOWN + 1]  # the cycle opens with the walked half
    if len(head) < CF_TERMS_SHOWN:
        head = expansion.cycle[:CF_TERMS_SHOWN]
    shown = ", ".join(str(a) for a in head)
    if expansion.period > CF_TERMS_SHOWN:
        shown += f", ... ({expansion.period:,} terms)"
    else:
        shown += " ..."
    lines = [
        f"sqrt({args.D}) = [{expansion.a0}; {shown}]",
        f"fundamental solution: ({_show_int(fund.t)}, {_show_int(fund.u)}), "
        f"unit norm {fund.unit_norm:+d}",
    ]
    if fund.neg_solution is not None:
        lines.append(
            f"negative equation solution: ({_show_int(fund.p)}, {_show_int(fund.q)})"
        )
    return result, "\n".join(lines)


def cmd_sign_report(args) -> tuple[dict, str]:
    from .witness import sign_change_report

    report = sign_change_report(args.d, args.bound)
    result = report.to_json_dict()
    human = (
        f"d = {args.d}, 0 <= n <= {args.bound}: "
        f"{report.count_minus} values with lambda = -1, "
        f"{report.count_plus} with lambda = +1; first sign change at "
        f"n = {report.first_change_n}"
    )
    return result, human


def cmd_verify(args) -> tuple[dict, str]:
    from .verify import verify_document

    try:
        with open(args.path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {args.path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {args.path}: {exc}") from exc
    report = verify_document(data)
    if not report.passed:
        raise VerificationError(
            f"verification failed: {', '.join(report.failures)}\n{report.summary()}"
        )
    result = {
        "verified": True,
        "subject": report.subject,
        "checks": [{"clause": n, "passed": ok} for n, ok in report.as_pairs()],
    }
    return result, report.summary()


def _parse_form(text: str):
    from .verify import QuadForm

    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidInputError(f"--form wants 'a,b,c', got {text!r}")
    try:
        a, b, c = (int(p.strip()) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"--form wants three integers, got {text!r}") from exc
    return QuadForm(a, b, c)


# the arguments a JSON envelope echoes, in this order
_ECHOED = (
    "n", "d", "D", "t", "sign", "count", "eps", "a", "b", "bound",
    "form", "path", "cap", "budget", "scan_bound", "output",
)


def _input_echo(args) -> dict:
    return {key: str(value) for key in _ECHOED if (value := getattr(args, key, None)) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouwit",
        description=(
            "Constructive witnesses for both signs of the Liouville function "
            "on the values n^2 + d"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="Liouville function and factorization")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_FACTOR_BUDGET,
                   help="factorization work budget (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_lambda)

    p = sub.add_parser("construct-m", help="build and verify an M certificate")
    p.add_argument("d", type=int)
    p.add_argument("--t", type=int, choices=(1, -1), required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_PRIME_SEARCH_CAP,
                   help="prime search cap (default %(default)s)")
    p.add_argument("--output", help="also write the bare certificate JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_construct_m)

    p = sub.add_parser("witness", help="emit verified sign witnesses")
    p.add_argument("d", type=int)
    p.add_argument("--sign", type=int, choices=(1, -1), default=-1)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_PRIME_SEARCH_CAP,
                   help="prime search cap (default %(default)s)")
    p.add_argument("--budget", type=int, default=DEFAULT_FACTOR_BUDGET,
                   help="rho iterations per brute-scan value; a Pell coordinate "
                   "gets a quarter, after the primes already found are divided "
                   "out (default %(default)s)")
    p.add_argument("--scan-bound", type=int, default=BRUTE_SCAN_BOUND,
                   dest="scan_bound",
                   help="brute scan bound, counted from the first n with "
                   "n^2 + d >= 1 (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("genus", help="assigned characters and generic values")
    p.add_argument("D", type=int)
    p.add_argument("--form", help="form coefficients a,b,c")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_genus)

    p = sub.add_parser("pell", help="fundamental and generalized Pell solutions")
    p.add_argument("D", type=int, nargs="?")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--eps", type=int, choices=(1, -1, 2, -2), default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_pell)

    p = sub.add_parser("sign-report", help="exact sign counts of lambda(n^2+d)")
    p.add_argument("d", type=int)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_sign_report)

    p = sub.add_parser("verify", help="re-verify a serialized certificate")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result, human = args.handler(args)
    except LiouwitError as exc:
        internal = isinstance(exc, InternalInvariantError)
        print(f"{'internal assertion violated' if internal else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code
    elapsed = time.perf_counter() - started
    if args.json:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "input": _input_echo(args),
            "result": result,
            "timing": {"seconds": round(elapsed, 6)},
        }
        print(json.dumps(envelope, indent=2))
    else:
        print(human)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
