"""End-to-end tests of the command line interface and its JSON envelopes."""

import json
import os
import subprocess
import sys
import time
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


def test_import_does_not_load_sympy():
    # sympy is imported lazily, for Baillie-PSW on huge inputs only
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, liouwit.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "False"


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
    from liouwit import cli, pell

    calls = []

    def counting(D):
        calls.append(D)
        return real(D)

    real = pell.cf_sqrt
    monkeypatch.setattr(pell, "cf_sqrt", counting)
    monkeypatch.setattr(cli, "cf_sqrt", counting)
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
