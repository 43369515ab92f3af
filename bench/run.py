"""Benchmark of liouwit: four workloads, output checks, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; liouwit is imported from ./src. Workloads:
witness-sweep, sign-sieve, certify, cli-cold (see bench/README.md).

One client in a closed loop: one request at a time, no threads. Each
repetition of a workload's request set runs in a fresh interpreter (or,
for cli-cold, one fresh CLI process per request). The run first sets up
the library several times in fresh interpreters, then repeats the
request set while another repetition still fits in --seconds.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it alternates untraced and traced repetitions and carries the
per-layer metrics. The line before it is a JSON report: run metadata,
failures by cause, sample counts and the tail percentile. Spans of traced
runs are written under .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")

# whole-run guard: the run ends within 180 s even if the program hangs
RUN_LIMIT_S = 160.0
WORKER_DEADLINE_S = 120.0
WORKER_MEMORY = 2 << 30
CLI_MEMORY = 1 << 30
LIBC = ctypes.CDLL(None, use_errno=True)
PR_SET_PDEATHSIG = 1

# set-up = import plus the first factorize, which builds the 10^6
# smallest-prime-factor table and the prime list; workers do the same
# before their timed loop
SETUP_CALL = "liouwit.factorize(1_000_003)"
SETUP_SCRIPT = f"import sys, liouwit; {SETUP_CALL}; print(sys.get_int_max_str_digits())"
LAYER_SCRIPT = (
    f"import sys, time, liouwit; t = time.perf_counter(); {SETUP_CALL}; "
    "print(time.perf_counter() - t, sys.get_int_max_str_digits())"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("verified_share", "ratio"),
    ("constructive_share", "ratio"),
)


@dataclass
class Child:
    """Outcome of one child process."""

    code: int | None  # None when the deadline killed it
    seconds: float
    cpu_s: float  # user + system time of the child
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def timed_out(self) -> bool:
        return self.code is None


def run_child(argv, env, deadline_s, memory, scratch) -> Child:
    """Run argv to completion or deadline under an address-space limit.

    Output goes to files, so a chatty child never blocks on a full pipe.
    The wait blocks (an interval timer kills the child at the deadline),
    so the benchmark process takes no CPU from the child; os.wait4 gives
    the child's own peak RSS.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
        # the kernel ends the child if this process dies first. (An
        # RLIMIT_CPU backstop would make the child's CPU clock tick-grained.)
        LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)

    out_path, err_path = scratch + ".out", scratch + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, preexec_fn=limit)
        state = {"reaped": False, "killed": False}

        def on_deadline(signum, frame):
            if not state["reaped"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_deadline)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            state["reaped"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    cpu = usage.ru_utime + usage.ru_stime
    if state["killed"]:
        return Child(None, deadline_s, cpu, usage.ru_maxrss / 1024, stdout, stderr)
    return Child(proc.returncode, seconds, cpu, usage.ru_maxrss / 1024, stdout, stderr)


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.cfg = workloads.SIZES[args.size]
        self.out_dir = os.path.join(root, ".bench_out", args.workload)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.env = dict(os.environ)
        # the program runs with Python's default int-to-str limit
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.started = time.perf_counter()
        self.children = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, argv, deadline_s, memory) -> Child:
        self.children += 1
        scratch = os.path.join(self.out_dir, f"child{self.children}")
        deadline = max(0.1, min(deadline_s, self.remaining()))
        return run_child(argv, self.env, deadline, memory, scratch)

    # --- set-up -----------------------------------------------------------

    def setup_probes(self) -> tuple[list[float], int]:
        times, digits = [], None
        for _ in range(self.cfg["setup_probes"]):
            c = self.child([sys.executable, "-c", SETUP_SCRIPT], 60, WORKER_MEMORY)
            if c.code != 0:
                raise SystemExit(f"error: set-up failed (exit {c.code}):\n{c.stderr[-2000:]}")
            times.append(c.seconds)
            digits = int(c.stdout.split()[-1])
        return times, digits

    def layer_probes(self) -> tuple[dict, int]:
        """Interpreter start, import split (via -X importtime) and SPF build."""
        bare, imports, sympy_imports, spf = [], [], [], []
        digits = None
        for _ in range(self.cfg["setup_probes"]):
            bare.append(self.child([sys.executable, "-c", "pass"], 60, WORKER_MEMORY).seconds)
            c = self.child([sys.executable, "-X", "importtime", "-c", LAYER_SCRIPT], 60, WORKER_MEMORY)
            if c.code != 0:
                raise SystemExit(f"error: set-up failed (exit {c.code}):\n{c.stderr[-2000:]}")
            cumulative = {}
            for line in c.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3:
                    name = parts[2].strip()
                    if name in ("liouwit", "sympy"):
                        cumulative[name] = int(parts[1]) / 1e6
            imports.append(cumulative["liouwit"])
            sympy_imports.append(cumulative.get("sympy", 0.0))
            build, digits = c.stdout.split()
            spf.append(float(build))
            digits = int(digits)
        med = statistics.median
        return {
            "cli.interpreter_s": med(bare),
            "cli.import_s": med(imports),
            "cli.import_sympy_s": med(sympy_imports),
            "factor.spf_build_s": med(spf),
        }, digits

    # --- repetitions ------------------------------------------------------

    def rep(self, reqs, traced: bool, index: int) -> dict:
        if self.args.workload == "cli-cold":
            return self.cli_rep(reqs, traced, index)
        spec = os.path.join(self.out_dir, "requests.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump({"size": self.args.size, "requests": reqs}, handle)
        spans = os.path.join(self.out_dir, f"spans-rep{index}.jsonl") if traced else "-"
        result_path = os.path.join(self.out_dir, f"result-rep{index}.json")
        c = self.child([sys.executable, WORKER, "rep", self.args.workload, spec, spans, result_path],
                       WORKER_DEADLINE_S, WORKER_MEMORY)
        if c.code != 0:
            why = "deadline" if c.timed_out else f"exit {c.code}: {c.stderr.strip()[-300:]}"
            ops = [{"req": r, "s": c.seconds / len(reqs), "cpu": c.cpu_s / len(reqs),
                    "status": f"unattributed: worker {why}"} for r in reqs]
            return {"wall_s": c.seconds, "rss_mb": c.rss_mb, "ops": ops, "check_problems": [],
                    "witnesses": [0, 0, 0], "spans": [], "traced": traced}
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["spans"] = [spans] if traced else []
        result["traced"] = traced
        return result

    def cli_rep(self, calls, traced: bool, index: int) -> dict:
        cert = os.path.join(self.out_dir, "cert6.json")
        ops, spans, witnesses, rss = [], [], [0, 0, 0], []
        wall = 0.0
        for i, call in enumerate(calls):
            argv = [self._cli_arg(a, cert) for a in call["argv"]]
            if None in argv:
                ops.append({"req": call["argv"], "s": 0.0, "cpu": 0.0,
                            "status": "unattributed: no certificate to tamper"})
                continue
            if traced:
                spans.append(os.path.join(self.out_dir, f"spans-rep{index}-call{i}.jsonl"))
                prefix = [sys.executable, WORKER, "cli", spans[-1]]
            else:
                prefix = [sys.executable, "-m", "liouwit.cli"]
            c = self.child(prefix + argv, self.cfg["cli_deadline_s"], CLI_MEMORY)
            wall += c.seconds
            status, problems = self._cli_status(call, c)
            ops.append({"req": call["argv"], "s": c.seconds, "cpu": c.cpu_s, "status": status,
                        "problems": problems})
            if status == "ok":
                rss.append(c.rss_mb)
                if call["check"] == "witness":
                    found = json.loads(c.stdout)["result"]["witnesses"]
                    witnesses = [a + b for a, b in zip(witnesses, workloads.witness_counts(found))]
        spans = [p for p in spans if os.path.exists(p)]
        return {"wall_s": wall, "rss_mb": max(rss, default=0.0), "ops": ops, "check_problems": [],
                "witnesses": witnesses, "spans": spans, "traced": traced}

    def _cli_arg(self, arg: str, cert: str):
        """Fill the {cert} and {tampered:<field>} placeholders of a CLI call."""
        if arg == "{cert}":
            return cert
        if not arg.startswith("{tampered:"):
            return arg
        field = arg[len("{tampered:"):-1]
        if not os.path.exists(cert):
            return None
        with open(cert, encoding="utf-8") as handle:
            doc = json.load(handle)
        table = dict(workloads.CLI_TAMPERS, D=workloads.HANG_TAMPER)
        bad, _ = workloads.tamper(doc, table, field)
        path = os.path.join(self.out_dir, f"tampered-{field}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bad, handle)
        return path

    @staticmethod
    def _cli_status(call: dict, c: Child) -> tuple[str, list[str]]:
        traceback = "Traceback (most recent call last)" in c.stderr
        if not c.timed_out and c.code in call["ok"] and not traceback:
            try:
                problems = workloads.check_cli(call, c.code, c.stdout, c.stderr)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"{call['argv'][0]}: malformed output ({type(exc).__name__}: {exc})"]
            return ("wrong" if problems else "ok"), problems
        return workloads.cli_failure_cause(call, c.timed_out, c.code, c.stderr), []


# --- aggregation ------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest rank with ten samples beyond it.

    Never below the median: with n <= 21 the (upper) median is reported, and
    the percentile says so.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - 11, n // 2)
    return xs[rank], 100.0 * (rank + 1) / n, n


def _share(part: int, whole: int) -> float:
    # over no witnesses the shares hold vacuously
    return part / whole if whole else 1.0


def _op_times(workload: str, rep: dict) -> list[float]:
    """CPU times of the successful timing ops of a repetition.

    Ops are timed in CPU time (user + system) of the process serving them:
    on a shared virtual machine, time stolen by the hypervisor lands on
    random short requests and would make the tail measure the host.
    """
    ops = [(op["cpu"], op["status"] == "ok") for op in rep["ops"]]
    if workload in workloads.WHOLE_SET_OPS:
        ops = [(sum(s for s, _ in ops), all(ok for _, ok in ops))]
    good = [s for s, ok in ops if ok]
    # when nothing succeeded, time the failures rather than nothing
    return good or [s for s, _ in ops] or [rep["wall_s"]]


def end_to_end(workload: str, setup: list[float], reps: list[dict], ok_share: float
               ) -> tuple[dict, dict]:
    """End-to-end metrics; op percentiles are taken per repetition, so the
    tail percentile does not depend on how many repetitions fit."""
    plain = [r for r in reps if not r["traced"]]
    tails = [tail(_op_times(workload, r)) for r in plain]
    returned, verified, constructive = (sum(r["witnesses"][i] for r in plain) for i in range(3))
    med = statistics.median
    values = {
        "setup_s": med(setup),
        "wall_s": med(r["wall_s"] for r in plain),
        "op_p50_s": med(med(_op_times(workload, r)) for r in plain),
        "op_tail_s": med(value for value, _, _ in tails),
        "ok_share": ok_share,
        "peak_rss_mb": med(r["rss_mb"] for r in plain),
        "verified_share": _share(verified, returned),
        "constructive_share": _share(constructive, verified),
    }
    detail = {
        "op_samples_per_repetition": [n for _, _, n in tails],
        "op_tail_percentile": [pct for _, pct, _ in tails],
        "failed_share": 1 - ok_share,
        "unverified_share": (returned - verified) / returned if returned else 0.0,
        "witnesses_returned": returned,
        "setup_samples_s": setup,
        "rep_wall_s": [r["wall_s"] for r in plain],
    }
    return values, detail


def per_layer(probes: dict, reps: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in reps if r["traced"]]
    tables = []
    by_layer = []
    for r in traced:
        spans = tracer.load_spans(r["spans"])
        tables.append(tracer.layer_metrics(spans))
        by_layer.append(tracer.self_by_layer(spans))
    values = dict(probes)
    for metric, _ in tracer.PER_LAYER:
        if metric not in tracer.NOT_FROM_SPANS:
            values[metric] = statistics.median(t[metric] for t in tables)
    plain_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_share"] = traced_wall / plain_wall - 1
    layers = sorted({k for t in by_layer for k in t})
    detail = {
        "self_s_by_layer": {k: statistics.median(t.get(k, 0.0) for t in by_layer) for k in layers},
        "traced_wall_s": [r["wall_s"] for r in traced],
        "untraced_wall_s": [r["wall_s"] for r in reps if not r["traced"]],
        "span_files": [os.path.relpath(p) for r in traced for p in r["spans"]],
    }
    return values, detail


def summarize(reps: list[dict]) -> dict:
    """Correctness and failure counts of a run.

    `attempted` is the size of the request set and `failed` the most
    failures in any one repetition, so neither depends on how many
    repetitions fit. The run is correct when no output was wrong and every
    failure matches a known defect's signature.
    """
    ops = [op for r in reps for op in r["ops"]]
    failures: dict[str, int] = {}
    for op in ops:
        if op["status"] != "ok":
            failures[op["status"]] = failures.get(op["status"], 0) + 1
    problems = [p for op in ops for p in op.get("problems", [])]
    problems += [p for r in reps for p in r["check_problems"]]
    return {
        "correct": not problems and all(c in workloads.KNOWN_DEFECTS for c in failures),
        "attempted": max(len(r["ops"]) for r in reps),
        "failed": max(sum(op["status"] != "ok" for op in r["ops"]) for r in reps),
        "failures_by_cause": failures,
        "problems": problems,
    }


# --- metadata ---------------------------------------------------------------


def _git_commit(root: str) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "liouwit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def metadata(root: str, seed: int) -> dict:
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "platform": platform.platform(),
    }


# --- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="request-set size; 'smoke' is for the smoke test only")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liouwit", "__init__.py")):
        print("error: no liouwit source at ./src/liouwit; run from the repository root",
              file=sys.stderr)
        return 2

    meta = metadata(root, args.seed)
    run = Run(args, root)
    if args.trace:
        probes, digits = run.layer_probes()
    else:
        setup, digits = run.setup_probes()
    meta["int_max_str_digits"] = digits

    reqs = workloads.requests(args.workload, args.seed, args.size)
    reps: list[dict] = []
    budget_end = run.started + args.seconds
    while run.remaining() > 0:
        traced = bool(args.trace) and len(reps) % 2 == 1
        began = time.perf_counter()
        reps.append(run.rep(reqs, traced, len(reps)))
        took = time.perf_counter() - began
        if args.trace and len(reps) < 2:
            continue  # a traced run needs one untraced and one traced repetition
        if time.perf_counter() + took > budget_end:
            break

    summary = summarize(reps)
    if args.trace:
        metrics, detail = per_layer(probes, reps)
        units = dict(tracer.PER_LAYER)
    else:
        ok_share = 1 - summary["failed"] / summary["attempted"]
        metrics, detail = end_to_end(args.workload, setup, reps, ok_share)
        units = dict(END_TO_END)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "metadata": meta,
        "repetitions": len(reps),
        "failures_by_cause": summary["failures_by_cause"],
        "problems": summary["problems"][:20],
        **detail,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
