"""Child process of the benchmark: one repetition in a fresh interpreter.

    python3 bench/worker.py rep WORKLOAD SPEC.json SPANS|- RESULT.json
        Import liouwit from ./src, set up (the first factorize builds the
        smallest-prime-factor table and prime list), run SPEC's request list in a closed
        loop, check every output, write RESULT.json. With a SPANS path
        the request loop is traced and its spans written there.

    python3 bench/worker.py cli SPANS ARGS...
        Run `liouwit ARGS...` with tracing on; exit as the CLI does.

A fresh interpreter per repetition matters: construct_M,
construct_prime_pair and fundamental_solution are lru_cached and the
smallest-prime-factor table is a module global, so a warm repeat would
time cache hits.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads
from tracer import Recorder


def _import_liouwit():
    import liouwit

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(liouwit.__file__).startswith(src):
        raise SystemExit(f"liouwit imported from {liouwit.__file__}, not from {src}")
    return liouwit


def run_rep(workload: str, size: str, reqs: list, spans_path: str | None) -> dict:
    lw = _import_liouwit()
    lw.factorize(1_000_003)  # the set-up that run.SETUP_SCRIPT times
    recorder = None
    if spans_path:
        recorder = Recorder()
        recorder.install()

    clock, cpu_clock = time.perf_counter, time.process_time
    outcomes = []
    wall_start = clock()
    for req in reqs:
        start, cpu_start = clock(), cpu_clock()
        try:
            output, error = workloads.run_request(lw, workload, req), None
        except Exception as exc:  # a failed request is data, not a crash
            output, error = None, workloads.classify_exception(exc)
        outcomes.append((clock() - start, cpu_clock() - cpu_start, output, error))
    wall = clock() - wall_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        recorder.dump(spans_path)

    ops = []
    witnesses = [0, 0, 0]
    for req, (seconds, cpu, output, error) in zip(reqs, outcomes):
        if error is not None:
            ops.append({"req": req, "s": seconds, "status": error, "cpu": cpu})
            continue
        try:
            problems = workloads.check_output(workload, req, output)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problems = [f"{req}: malformed output ({type(exc).__name__}: {exc})"]
        ops.append({"req": req, "s": seconds, "status": "wrong" if problems else "ok",
                    "problems": problems, "cpu": cpu})
        if workload == "witness-sweep":
            witnesses = [a + b for a, b in zip(witnesses, workloads.witness_counts(output))]
    extra = []
    if workload == "sign-sieve":
        extra = _small_bound_problems(lw, reqs, workloads.SIZES[size]["sieve_check_bound"])
    return {
        "wall_s": wall,
        "rss_mb": rss_mb,
        "ops": ops,
        "check_problems": extra,
        "witnesses": witnesses,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def _small_bound_problems(lw, reqs: list, bound: int) -> list[str]:
    """Sign counts at a small bound against trial division, one per d.

    The program calls here are checks, so they are neither timed nor traced
    (the spans were written out before).
    """
    problems = []
    for d in sorted({d for d, _ in reqs}):
        report = lw.sign_change_report(d, bound)
        got = (report.count_minus, report.count_plus, report.first_change_n)
        want = workloads.brute_sign_counts(d, bound)
        if got != want:
            problems.append(f"d = {d}, bound {bound}: {got} != trial division {want}")
    return problems


def run_cli(spans_path: str, args: list[str]) -> int:
    recorder = Recorder()
    recorder.install()
    from liouwit import cli

    try:
        return cli.main(args)
    finally:
        recorder.dump(spans_path)


def main(argv: list[str]) -> int:
    if argv[1] == "cli":
        return run_cli(argv[2], argv[3:])
    _, _, workload, requests_path, spans_path, result_path = argv
    with open(requests_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run_rep(workload, spec["size"], spec["requests"],
                     None if spans_path == "-" else spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
