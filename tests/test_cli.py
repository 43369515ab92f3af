"""End-to-end tests of the command line interface and its JSON envelopes."""

import ast
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from liouwit.cli import (
    EXIT_INTERNAL_ASSERTION,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    EXIT_VERIFICATION_FAILURE,
    SCHEMA_VERSION,
    main,
)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_lambda_json_envelope(capsys):
    code, env = run_json(capsys, ["lambda", "12"])
    assert code == EXIT_OK
    assert env["schema_version"] == SCHEMA_VERSION
    assert env["command"] == "lambda"
    assert env["input"]["n"] == "12"
    assert env["result"]["lambda"] == -1
    assert env["result"]["big_omega"] == 3
    assert env["result"]["factorization"]["factors"] == [["2", 2], ["3", 1]]
    assert env["timing"]["seconds"] >= 0


def test_lambda_human_output(capsys):
    assert main(["lambda", "12"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda(12) = -1" in out
    assert "12 = 2^2 * 3" in out


def test_lambda_rejects_nonpositive(capsys):
    assert main(["lambda", "0"]) == EXIT_INVALID_INPUT
    assert "error" in capsys.readouterr().err


def test_construct_m_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, env = run_json(
        capsys, ["construct-m", "6", "--t", "1", "--output", str(cert_path)]
    )
    assert code == EXIT_OK
    result = env["result"]
    assert result["kind"] == "m_certificate"
    assert result["M"] == "1705"
    assert result["m_primes"] == ["5"]
    assert (result["e1"], result["e2"]) == ("31", "11")
    assert result["predicted_form"] == {"a": "1705", "b": "0", "c": "-6"}
    assert all(c["passed"] for c in result["checks"])
    assert json.loads(cert_path.read_text()) == result

    code = main(["verify", str(cert_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verification of certificate:" in out
    assert "FAIL" not in out


def test_verify_accepts_enveloped_document(tmp_path, capsys):
    code, env = run_json(capsys, ["construct-m", "6", "--t", "1"])
    assert code == EXIT_OK
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    code, verdict = run_json(capsys, ["verify", str(path)])
    assert code == EXIT_OK
    assert verdict["result"]["verified"] is True
    clauses = [c["clause"] for c in verdict["result"]["checks"]]
    assert "genus_uniqueness" in clauses and "pell_evidence" in clauses


def test_verify_detects_tampered_field(tmp_path, capsys):
    code, env = run_json(capsys, ["construct-m", "6", "--t", "1"])
    doc = env["result"]
    doc["e2"] = "13"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == EXIT_VERIFICATION_FAILURE
    err = capsys.readouterr().err
    assert "primality_congruence" in err


def test_verify_detects_tampered_recorded_checks(tmp_path, capsys):
    code, env = run_json(capsys, ["construct-m", "6", "--t", "1"])
    doc = env["result"]
    doc["checks"][0]["passed"] = False
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == EXIT_VERIFICATION_FAILURE
    err = capsys.readouterr().err
    assert "recorded_checks" in err


def test_verify_prime_pair_document(tmp_path, capsys):
    from liouwit import construct_prime_pair, verify_prime_pair, with_checks

    cert = construct_prime_pair(3)
    cert = with_checks(cert, verify_prime_pair(cert))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(cert.to_json_dict()))
    code, verdict = run_json(capsys, ["verify", str(path)])
    assert code == EXIT_OK
    assert verdict["result"]["subject"] == "prime pair"


def test_verify_dispatches_on_kind_only(tmp_path, capsys):
    from liouwit import construct_M, verify_certificate, with_checks

    cert = construct_M(6, 1)
    doc = with_checks(cert, verify_certificate(cert)).to_json_dict()
    path = tmp_path / "cert.json"
    # a stray "p" key does not make an m_certificate a prime pair
    path.write_text(json.dumps({**doc, "p": "3"}))
    code, verdict = run_json(capsys, ["verify", str(path)])
    assert code == EXIT_OK
    assert verdict["result"]["subject"] == "certificate"
    for kind in ({}, {"kind": "prime_pair"}, {"kind": ["m_certificate"]}):
        path.write_text(json.dumps({**{k: v for k, v in doc.items() if k != "kind"}, **kind}))
        assert main(["verify", str(path)]) == EXIT_INVALID_INPUT
        assert "unknown certificate kind" in capsys.readouterr().err


def test_verify_does_not_factor_untrusted_d(tmp_path, capsys):
    code, env = run_json(capsys, ["construct-m", "6", "--t", "1"])
    doc = env["result"]
    # a semiprime no rho budget could split; only the stored d_primes are read
    doc["d"] = str((10**39 + 3) * (2 * 10**39 + 11))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    assert main(["verify", str(path)]) == EXIT_VERIFICATION_FAILURE
    assert time.monotonic() - start < 2
    assert "primality_congruence" in capsys.readouterr().err


def test_verify_tests_primality_after_the_cheap_checks(tmp_path, capsys):
    code, env = run_json(capsys, ["construct-m", "6", "--t", "1"])
    doc = env["result"]
    # 4,275 digits, odd, no prime factor below 100: one is_prime call on it
    # costs about 6 s, and the product check refuses it at once
    doc["d_primes"][1] = str(10**4274 + 1)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = _fresh_python("-m", "liouwit.cli", "verify", str(path))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert run.returncode == EXIT_VERIFICATION_FAILURE, run.stderr
    assert "Traceback" not in run.stderr
    assert "is not the product of d_primes" in run.stderr
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu < 1.5


def test_import_does_not_load_sympy():
    # the witness path runs the in-repo strong Baillie-PSW test above the
    # Miller-Rabin bound (2^89 - 1 is a Mersenne prime beyond it)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, liouwit.cli\n"
        "from liouwit import is_prime, minus_witnesses\n"
        "assert len(minus_witnesses(-10, 3)) >= 3 and is_prime(2**89 - 1)\n"
        "print('sympy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_no_module_imports_sympy():
    src = Path(__file__).resolve().parents[1] / "src" / "liouwit"
    for module in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "sympy" for n in names), (module.name, node.lineno)


def test_verify_bad_paths(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["verify", str(arr)]) == EXIT_INVALID_INPUT
    capsys.readouterr()


def test_construct_m_contract_violation(capsys):
    assert main(["construct-m", "30", "--t", "1"]) == EXIT_INVALID_INPUT
    assert "t = +1 is a contract violation" in capsys.readouterr().err


def test_construct_m_cap_exhaustion(capsys):
    assert main(["construct-m", "6", "--t", "1", "--cap", "7"]) == EXIT_RESOURCE_CAP
    assert "error" in capsys.readouterr().err


def test_witness_command(capsys):
    code, env = run_json(capsys, ["witness", "6", "--sign", "-1", "--count", "1"])
    assert code == EXIT_OK
    result = env["result"]
    assert result["plan"]["branch"] == "composite_certificate_plus"
    assert result["plan"]["certificate"]["M"] == "1705"
    assert [w["n"] for w in result["witnesses"]] == ["708"]
    assert result["witnesses"][0]["verified"] is True


def test_witness_negative_d(capsys):
    code, env = run_json(capsys, ["witness", "-5", "--sign", "-1", "--count", "1"])
    assert code == EXIT_OK
    assert env["result"]["witnesses"][0]["provenance"] == "negative_pell"
    assert main(["witness", "0"]) == EXIT_INVALID_INPUT
    capsys.readouterr()


def test_genus_command(capsys):
    code, env = run_json(capsys, ["genus", "6"])
    assert code == EXIT_OK
    assert env["result"]["characters"] == ["chi_3", "delta_eta"]

    code, env = run_json(capsys, ["genus", "6", "--form", "1,0,-6"])
    assert env["result"]["in_principal_genus"] is True
    assert env["result"]["theta"] == "1"

    code, env = run_json(capsys, ["genus", "6", "--form", "2,0,-3"])
    assert env["result"]["in_principal_genus"] is False
    assert env["result"]["values"] == [-1, -1]

    assert main(["genus", "6", "--form", "1,0"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    assert main(["genus", "12"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    # every value of an imprimitive form shares its content: refused unsearched
    assert main(["genus", "5", "--form", "2,2,-2"]) == EXIT_INVALID_INPUT
    assert "not primitive" in capsys.readouterr().err


def test_pell_command(capsys):
    code, env = run_json(capsys, ["pell", "6"])
    assert code == EXIT_OK
    assert (env["result"]["t"], env["result"]["u"]) == ("5", "2")
    assert env["result"]["unit_norm"] == 1
    assert env["result"]["cf_cycle"] == ["2", "4"]

    code, env = run_json(capsys, ["pell", "2"])
    assert env["result"]["neg_solution"] == {"x": "1", "y": "1"}

    code, env = run_json(capsys, ["pell", "--a", "3", "--b", "2"])
    assert env["result"]["solution"] == {"x": "1", "y": "1"}

    code, env = run_json(capsys, ["pell", "--a", "2", "--b", "3"])
    assert env["result"]["solution"] is None


def test_pell_human_view_builds_no_cycle_strings(capsys):
    # the human view prints ten of the 216,740 cycle terms; only --json
    # writes them all
    tracemalloc.start()
    try:
        assert main(["pell", "1791383334047790"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "(216,740 terms)" in capsys.readouterr().out
    assert peak < 8_000_000


def test_pell_human_view_reads_the_walked_half_period(monkeypatch, capsys):
    # the ten terms shown open the half period cf_sqrt walked, so the human
    # view never builds the mirrored cycle (918,548 terms here); a short
    # period still prints off the cycle, byte for byte as before
    from liouwit import pell

    reads = []
    real = pell.CFExpansion.cycle.func

    def cycle(self):
        reads.append(self.D)
        return real(self)

    monkeypatch.setattr(pell.CFExpansion, "cycle", property(cycle))
    assert main(["pell", "8804767929867030"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == (
        "sqrt(8804767929867030) = [93833724; 1, 9, 1, 2, 1, 1, 4, 5, 1, 7, ... (918,548 terms)]"
    )
    assert reads == []
    short = []
    for D in range(2, 400):
        if math.isqrt(D) ** 2 == D:
            continue
        expansion = pell.cf_sqrt(D)
        if len(expansion.terms) <= 10:
            short.append(D)
        assert main(["pell", str(D)]) == EXIT_OK
        head = ", ".join(str(a) for a in real(expansion)[:10])
        tail = f", ... ({expansion.period:,} terms)" if expansion.period > 10 else " ..."
        assert capsys.readouterr().out.startswith(f"sqrt({D}) = [{expansion.a0}; {head}{tail}]\n")
    assert reads == short


def test_pell_command_writes_a_huge_unit_without_a_traceback():
    # t and u run far past the int-to-str digit limit: the JSON view writes
    # them in hex, the human view by their bit length, and the limit stays
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for argv in (["pell", "8804767929867030"], ["pell", "1791383334047790", "--json"]):
        runs[argv[1]] = run = subprocess.run(
            [sys.executable, "-m", "liouwit.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == EXIT_OK, run.stderr
        assert "Traceback" not in run.stderr
    human = runs["8804767929867030"].stdout.splitlines()
    assert human[0] == (
        "sqrt(8804767929867030) = [93833724; 1, 9, 1, 2, 1, 1, 4, 5, 1, 7, ... (918,548 terms)]"
    )
    assert human[1] == (
        "fundamental solution: (<1576841-bit integer>, <1576815-bit integer>), unit norm +1"
    )
    env = json.loads(runs["1791383334047790"].stdout)
    assert env["schema_version"] == SCHEMA_VERSION == "1.1.0"
    t, u = env["result"]["t"], env["result"]["u"]
    assert t.startswith("0x") and u.startswith("0x")
    assert int(t, 0) ** 2 - 1791383334047790 * int(u, 0) ** 2 == 1
    assert len(env["result"]["cf_cycle"]) == 216740


def test_pell_command_rejects(capsys):
    assert main(["pell"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    assert main(["pell", "9"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    assert main(["pell", "--a", "3"]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    assert main(["pell", "6", "--a", "3", "--b", "2"]) == EXIT_INVALID_INPUT
    capsys.readouterr()


def test_sign_report_command(capsys):
    code, env = run_json(capsys, ["sign-report", "6", "--bound", "1000"])
    assert code == EXIT_OK
    assert env["result"]["count_minus"] == 502
    assert env["result"]["count_plus"] == 499
    assert env["result"]["first_change_n"] == "1"


def test_sign_report_bound_above_scan_limit_exits_4():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "liouwit.cli", "sign-report", "6", "--bound", "10000001"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == EXIT_RESOURCE_CAP
    assert "scan limit" in run.stderr
    assert "Traceback" not in run.stderr


def test_construct_m_beyond_period_budget_exits_4():
    # D = 2310 M is 75 bits; the period of sqrt(D) runs past MAX_CF_PERIOD
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "liouwit.cli", "construct-m", "2310", "--t", "-1", "--json"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == EXIT_RESOURCE_CAP
    assert "period of 2097152 or more" in run.stderr
    assert "Traceback" not in run.stderr


def test_pell_command_runs_one_continued_fraction(monkeypatch, capsys):
    from liouwit import pell

    calls = []

    def counting(D):
        calls.append(D)
        return real(D)

    real = pell.cf_sqrt
    monkeypatch.setattr(pell, "cf_sqrt", counting)
    # a warm fundamental_solution cache would hide a second expansion
    pell.fundamental_solution.cache_clear()
    code, env = run_json(capsys, ["pell", "61"])
    assert code == EXIT_OK
    assert calls == [61]
    assert (env["result"]["t"], env["result"]["u"]) == ("1766319049", "226153980")
    assert env["result"]["cf_cycle"] == ["1", "4", "3", "1", "2", "2", "1", "3", "4", "1", "14"]


def test_exit_codes_are_distinct():
    codes = {
        EXIT_OK,
        EXIT_INVALID_INPUT,
        EXIT_VERIFICATION_FAILURE,
        EXIT_RESOURCE_CAP,
        EXIT_INTERNAL_ASSERTION,
    }
    assert codes == {0, 2, 3, 4, 5}


@pytest.mark.parametrize("d", ["-2310", "30030"])
def test_witness_plus_sign_builds_no_certificate(d):
    # the + sign reads no M certificate; building the one of this d would
    # run past MAX_CF_PERIOD and exit 4
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "liouwit.cli", "witness", d, "--sign", "1", "--count", "3",
         "--json"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == EXIT_OK
    assert "Traceback" not in run.stderr
    result = json.loads(run.stdout)["result"]
    assert "certificate" not in result["plan"]
    witnesses = result["witnesses"]
    assert sum(w["verified"] for w in witnesses) >= 3
    assert all(w["lambda"] == 1 for w in witnesses)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's src first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("d, brute_n", [("462", 1), ("-30030", 174)])
@pytest.mark.parametrize("json_view", [False, True])
def test_witness_falls_through_to_the_brute_scan_past_the_period_cap(d, brute_n, json_view):
    # the sign -1 recipe reads an M certificate whose continued fraction runs
    # past MAX_CF_PERIOD; the request is served by the brute scan instead
    view = ["--json"] if json_view else []
    run = _fresh_python("-m", "liouwit.cli", "witness", d, "--sign", "-1", "--count", "2", *view)
    assert run.returncode == EXIT_OK, run.stderr
    assert "Traceback" not in run.stderr
    if json_view:
        result = json.loads(run.stdout)["result"]
        assert "certificate" not in result["plan"]
        brute = [
            int(w["n"]) for w in result["witnesses"]
            if w["provenance"] == "brute" and w["verified"] and w["lambda"] == -1
        ]
    else:
        brute = [
            int(line.split()[2].rstrip(":")) for line in run.stdout.splitlines()[1:]
            if "= -1 [brute, verified]" in line
        ]
    assert len(brute) >= 2
    assert brute[0] == brute_n


@pytest.mark.parametrize(
    "args",
    [
        ["witness", "4", "--budget", "-1", "--count", "2"],
        # n = 0 gives this witness from the plan, with no factorize call
        ["witness", "4", "--budget", "-1", "--count", "1", "--sign", "1"],
        ["witness", "4", "--scan-bound", "-1", "--count", "2"],
        ["lambda", "12", "--budget", "-1"],
        ["lambda", str(10**39 + 1), "--budget", "-1"],
        ["construct-m", "6", "--t", "1", "--cap", "-1"],
        # the certificate search failed silently here, and the brute scan answered
        ["witness", "6", "--cap", "-5", "--sign", "-1"],
        # a Pell recipe (direct_pell here) never reaches the prime search
        ["witness", "7", "--cap", "-1", "--sign", "-1"],
    ],
)
def test_negative_budget_or_scan_bound_is_invalid_input(args):
    run = _fresh_python("-m", "liouwit.cli", *args)
    assert run.returncode == EXIT_INVALID_INPUT, run.stderr
    assert "must be non-negative" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("sign, n", [("1", 10**15 + 2), ("-1", 10**15 + 1)])
def test_witness_scan_starts_at_the_first_positive_value(sign, n):
    # every n <= 10^7 gives n^2 + d < 0 here; the scan counts from
    # isqrt(-d) + 1 = 10^15 + 1, where n^2 + d = 2 10^15 = 2^16 5^15
    d = str(-(10**30 + 1))
    run = _fresh_python("-m", "liouwit.cli", "witness", "--sign", sign, "--json", "--", d)
    assert run.returncode == EXIT_OK, run.stderr
    [witness] = json.loads(run.stdout)["result"]["witnesses"]
    assert (int(witness["n"]), witness["lambda"], witness["verified"]) == (n, int(sign), True)


def test_witness_json_walks_a_capped_continued_fraction_once(monkeypatch, capsys):
    # the plan remembers that the certificate of (462, +1) ran past
    # MAX_CF_PERIOD, so the JSON plan does not build it a second time
    from liouwit import pell, witness

    calls = []

    def counting(D):
        calls.append(D)
        return real(D)

    real = pell.cf_sqrt
    monkeypatch.setattr(pell, "cf_sqrt", counting)
    witness.plan.cache_clear()
    code, env = run_json(capsys, ["witness", "462", "--sign", "-1"])
    assert code == EXIT_OK
    assert len(calls) == 1
    assert "certificate" not in env["result"]["plan"]
    assert env["result"]["witnesses"][0]["n"] == "1"


def test_construct_m_output_leaves_no_file_when_serializing_fails(tmp_path):
    # the certificate of (102, -1) has an integer past the int-to-str digit
    # limit. Whatever the exit code, no empty or partial file may remain: a
    # failed call writes nothing, and a call that succeeds writes it whole
    out = tmp_path / "cert.json"
    run = _fresh_python(
        "-m", "liouwit.cli", "construct-m", "102", "--t", "-1", "--output", str(out)
    )
    if run.returncode == EXIT_OK:
        assert json.loads(out.read_text())["kind"]
    else:
        assert not out.exists()


# a probe line that prints the liouwit modules loaded so far
_PRINT_LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'liouwit')))\n"
)


def test_import_and_lambda_load_only_the_factor_stack():
    probe = (
        "import json, sys, liouwit\n"
        "liouwit.factorize(1_000_003)\n"
        + _PRINT_LOADED
        + "from liouwit import cli\n"
        "assert cli.main(['lambda', '12']) == 0\n"
        + _PRINT_LOADED
    )
    run = _fresh_python("-c", probe)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    stack = ["liouwit", "liouwit.arith", "liouwit.errors", "liouwit.factor"]
    assert json.loads(lines[0]) == stack
    assert json.loads(lines[-1]) == sorted(stack + ["liouwit.cli"])


def _write_certificate(path: Path) -> str:
    from liouwit import construct_M, verify_certificate, with_checks

    cert = construct_M(6, 1)
    path.write_text(json.dumps(with_checks(cert, verify_certificate(cert)).to_json_dict()))
    return str(path)


_CERTIFICATE_STACK = ["liouwit.construct", "liouwit.forms", "liouwit.genus", "liouwit.pell"]


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["pell", "6"], ["liouwit.construct", "liouwit.forms"]),
        (["genus", "6", "--form", "2,0,-3"], ["liouwit.construct"]),
        (["sign-report", "6", "--bound", "10000"], _CERTIFICATE_STACK),
        (["construct-m", "6", "--t", "1"], ["liouwit.forms", "liouwit.genus"]),
        # the prime-pair branch
        (["witness", "-11", "--count", "1"], ["liouwit.forms", "liouwit.genus"]),
        (["verify", "{cert}"], _CERTIFICATE_STACK),
    ],
    ids=["pell", "genus", "sign_report", "construct_m", "witness_prime_pair", "verify"],
)
def test_command_loads_no_certificate_module(tmp_path, argv, absent):
    cert = _write_certificate(tmp_path / "cert.json")
    argv = [arg.format(cert=cert) for arg in argv]
    probe = (
        "import json, sys\n"
        "from liouwit import cli\n"
        f"assert cli.main({argv!r}) == 0\n" + _PRINT_LOADED
    )
    run = _fresh_python("-c", probe)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert "liouwit.cli" in loaded
    assert not set(absent) & set(loaded)


def test_verify_loads_only_the_verifier(tmp_path):
    # the verifier imports arith and errors only; cli brings factor
    cert = _write_certificate(tmp_path / "cert.json")
    probe = (
        "import json, sys\n"
        "import liouwit.verify\n"
        + _PRINT_LOADED
        + "from liouwit import cli\n"
        f"assert cli.main(['verify', {cert!r}]) == 0\n"
        + _PRINT_LOADED
    )
    run = _fresh_python("-c", probe)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    verifier = ["liouwit", "liouwit.arith", "liouwit.errors", "liouwit.verify"]
    assert json.loads(lines[0]) == verifier
    assert json.loads(lines[-1]) == sorted(verifier + ["liouwit.cli", "liouwit.factor"])


def _forged_m_certificate(d_primes, m_primes, e1, e2, t):
    """A document that passes the structural gate and nothing else: the
    primes sit in the classes mod 8 the gate asks for, but no symbol is
    arranged and the evidence x = y = 1 solves nothing."""
    from liouwit import GeneralizedSolution, MCertificate, QuadForm

    d, M = math.prod(d_primes), math.prod(m_primes) * e1 * e2
    a, b = (M, d) if t == 1 else (d, M)
    r = len(d_primes)
    return MCertificate(
        d=d, d_primes=tuple(d_primes), t=t, s=-t, lambda_d=(-1) ** r, lambda_m=(-1) ** (r + 1),
        m_primes=tuple(m_primes), e1=e1, e2=e2, M=M, D=d * M,
        predicted_form=QuadForm(a, 0, -b), pell_evidence=GeneralizedSolution(a, b, 1, 1, 1),
    ).to_json_dict()


# 21 primes whose Legendre symbols are all +1; 7 is the only one = 3 mod 4,
# so every row of the genus table but its own is 0 and the kernel has
# dimension 20: 2^20 - 1 split candidates pass, and none may be listed
MUTUAL_RESIDUES = (
    281, 673, 3329, 3833, 14281, 26713, 63617, 74729, 81097, 124433, 196169,
    984617, 2831641, 9132337, 24040657, 60375961, 162167009, 313826297,
)

FORGERIES = {
    # d = 3 * 5 * ... * 31, nine m_i = 1 mod 8 but the last = 5, e1 = 7, e2 = 3
    "first_odd_primes": (
        lambda: _forged_m_certificate(
            (3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
            (41, 73, 89, 97, 113, 137, 193, 233, 37),
            47,
            43,
            1,
        ),
        "principal-genus split candidates ['(2678013016024791, 0, -50367621081032255)']",
    ),
    "mutual_residues": (
        lambda: _forged_m_certificate(
            MUTUAL_RESIDUES[:10], MUTUAL_RESIDUES[10:] + (29,), 7, 53, -1
        ),
        "[1048575 principal-genus split candidates, expected exactly [",
    ),
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_verify_rejects_a_forged_genus_table_at_once(tmp_path, name):
    # 21 primes of D: a clause that listed the 2^21 divisors of D took
    # seconds and hundreds of MB; the kernel of the table takes 21 rows
    from liouwit import jacobi
    from liouwit.verify import verify_document

    build, detail = FORGERIES[name]
    doc = build()
    primes = [int(p) for p in doc["d_primes"] + doc["m_primes"] + [doc["e1"], doc["e2"]]]
    assert len(set(primes)) == 21
    if name == "mutual_residues":
        assert all(jacobi(p, q) == 1 for p in primes for q in primes if p != q)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    run = _fresh_python("-m", "liouwit.cli", "verify", str(path))
    assert time.monotonic() - start < 0.5
    assert run.returncode == EXIT_VERIFICATION_FAILURE
    genus = [line for line in run.stderr.splitlines() if "genus_uniqueness  [" in line]
    assert len(genus) == 1 and detail in genus[0]
    tracemalloc.start()
    try:
        assert not verify_document(doc).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "field, value",
    [
        ("e1", 31.9),
        ("d", 6.5),
        ("e2", 11.0),
        ("t", True),
        ("d_primes", "32"),
        ("M", " 1705 "),
        ("M", "17_05"),
    ],
)
def test_verify_rejects_a_field_of_the_wrong_json_type(tmp_path, field, value):
    # int(), tuple() and bool() would read each of these as the true field
    # of the d = 6 certificate, so the document would pass
    path = Path(_write_certificate(tmp_path / "cert.json"))
    doc = json.loads(path.read_text())
    bare = tuple if field == "d_primes" else int
    assert bare(value) == bare(doc[field])
    path.write_text(json.dumps({**doc, field: value}))
    run = _fresh_python("-m", "liouwit.cli", "verify", str(path))
    assert run.returncode == EXIT_INVALID_INPUT, run.stdout
    assert run.stderr.startswith("error: malformed certificate document: ")


@pytest.mark.parametrize(
    "content",
    [b"[" * 200_000, b'{"kind": "m_certificate", "d": 1' + b"0" * 5_000 + b"}", b"\xff\xfe{}"],
    ids=["nested-past-the-recursion-limit", "bare-number-past-the-int-to-str-limit", "not-utf-8"],
)
def test_verify_refuses_json_that_json_load_cannot_read(tmp_path, content):
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    run = _fresh_python("-m", "liouwit.cli", "verify", str(path))
    assert run.returncode == EXIT_INVALID_INPUT, run.stderr
    assert run.stderr.startswith(f"error: malformed JSON in {path}: ")
    assert "Traceback" not in run.stderr


def test_package_exports_its_table():
    # names bind on first access; submodules still import as attributes
    probe = (
        "import liouwit\n"
        "from liouwit import pell\n"
        "assert pell.__name__ == 'liouwit.pell' and pell.__file__.endswith('pell.py')\n"
        "star = {}\n"
        "exec('from liouwit import *', star)\n"
        "del star['__builtins__']\n"
        "assert len(liouwit.__all__) == len(set(liouwit.__all__)) == 68\n"
        "assert sorted(star) == sorted(liouwit.__all__)\n"
        "assert all(getattr(liouwit, name) is star[name] for name in liouwit.__all__)\n"
        "try:\n"
        "    liouwit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    run = _fresh_python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "module 'liouwit' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize(
    "argv", [["construct-m", "102", "--t", "-1"], ["witness", "-102"]], ids=["construct_m", "witness"]
)
def test_human_view_of_huge_integers_without_a_traceback(argv):
    # the Pell evidence and the certificate witnesses of d = 102 run past the
    # int-to-str digit limit; the human view gives them by their bit length
    run = _fresh_python("-m", "liouwit.cli", *argv)
    assert run.returncode == EXIT_OK, run.stderr
    assert "Traceback" not in run.stderr
    assert "-bit integer>" in run.stdout
