"""Outside-in tracing of liouwit: spans around every public function.

The library's modules import each other with `from .x import y`, so a
function has one binding per importing module. `Recorder.install` wraps
each public function of each layer once and rebinds every module
attribute that points at it, so calls inside a module (which look up the
module's globals) and calls across modules both pass through the wrapper.

A span is a tuple (name, parent, start, end, bits, outcome):
- `parent` is the index of the enclosing span, or -1;
- `bits` is the bit length of the input size (the first argument when it
  is an integer, else 0; `a * b` for `solve_generalized`), so rows can be
  sliced by input size;
- `outcome` is the exception class name when the call raised, "hit" or
  "miss" for `lru_cache`d functions, a per-function observation listed
  in `_OBSERVE`, or None.

Spans stay in memory until `dump`. `layer_metrics` derives the per-layer
table from spans alone, so it runs in the benchmark process without
importing liouwit.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time

LAYERS = ("arith", "factor", "forms", "genus", "pell", "construct", "witness", "cli")

# sympy functions that a layer binds by name; traced as "sympy.<name>"
FOREIGN = {"witness": ("sqrt_mod", "primerange")}


def _first_int_bits(args) -> int:
    if args and isinstance(args[0], int):
        return abs(args[0]).bit_length()
    return 0


def _next_prime_candidates(args, result):
    cls = args[0]
    start = cls.residue if cls.residue > 0 else cls.modulus
    return (result - start) // cls.modulus + 1


_SIZE = {"pell.solve_generalized": lambda args: (args[0] * args[1]).bit_length()}

_OBSERVE = {
    "pell.cf_sqrt": lambda args, result: [args[0], result.period],
    "pell.solve_generalized": lambda args, result: result is None,
    "arith.next_prime_in_class": _next_prime_candidates,
    "construct.verify_certificate": lambda args, result: result.passed,
    "construct.verify_prime_pair": lambda args, result: result.passed,
}


class Recorder:
    """Span recorder; `install` patches a freshly imported liouwit in place."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def install(self) -> None:
        import importlib

        modules = {name: importlib.import_module(f"liouwit.{name}") for name in LAYERS}
        everyone = list(modules.values()) + [importlib.import_module("liouwit")]
        for layer, module in modules.items():
            targets = {}
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    targets[attr] = (f"{layer}.{attr}", obj)
            for attr in FOREIGN.get(layer, ()):
                targets[attr] = (f"sympy.{attr}", getattr(module, attr))
            for attr, (name, original) in targets.items():
                wrapped = self._wrap(name, original)
                for other in everyone:
                    for other_attr, obj in list(vars(other).items()):
                        if obj is original:
                            setattr(other, other_attr, wrapped)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = _SIZE.get(name, _first_int_bits)
        observe = _OBSERVE.get(name)
        cached = hasattr(fn, "cache_info")

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            hits = fn.cache_info().hits if cached else 0
            outcome = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            else:
                if cached:
                    outcome = "hit" if fn.cache_info().hits > hits else "miss"
                elif observe is not None:
                    outcome = observe(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end, size(args), outcome)

        return traced

    def _wrap_generator(self, name, fn):
        """A generator's work happens in next(); its span sums those intervals."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            start = clock()
            busy = 0.0
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    yield item
            finally:
                spans.append((name, parent, start, start + busy, _first_int_bits(args), None))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span, separators=(",", ":")))
                    handle.write("\n")


def load_spans(paths) -> list:
    """Spans of several dump files, parent indexes shifted into one list."""
    spans: list = []
    for path in paths:
        offset = len(spans)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name, parent, start, end, bits, outcome = json.loads(line)
                spans.append((name, parent + offset if parent >= 0 else -1, start, end, bits, outcome))
    return spans


# (metric, unit) of the per-layer table, in BENCHMARK.json order
def _calls_self(name):
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


PER_LAYER = (
    _calls_self("factor.factorize")
    + [("factor.factorize.budget_exhausted", "count"), ("factor.factorize.exhausted_s", "s")]
    + [("factor.spf_build_s", "s"), ("cli.interpreter_s", "s"), ("cli.import_s", "s"),
       ("cli.import_sympy_s", "s")]
    + _calls_self("arith.is_prime")
    + _calls_self("sympy.sqrt_mod")
    + [("sympy.primerange.self_s", "s"), ("witness.sign_change_report.self_s", "s")]
    + _calls_self("arith.next_prime_in_class")
    + [("arith.next_prime_in_class.candidates_per_prime", "count"), ("arith.jacobi.calls", "count")]
    + _calls_self("pell.cf_sqrt")
    + [("pell.cf_sqrt.period_max", "count"), ("pell.cf_sqrt.repeat_share", "ratio")]
    + _calls_self("pell.fundamental_solution")
    + [("pell.fundamental_solution.cache_hit_share", "ratio")]
    + _calls_self("pell.solve_generalized")
    + [("pell.solve_generalized.none_share", "ratio")]
    + _calls_self("pell.iterate_solution")
    + [("pell.unit_norm.calls", "count")]
    + _calls_self("construct.construct_M")
    + [("construct.construct_M.e2_attempts", "count"), ("construct.construct_prime_pair.self_s", "s")]
    + _calls_self("construct.verify_certificate")
    + [("construct.verify_certificate.reject_s", "s"), ("construct.verify_prime_pair.self_s", "s")]
    + _calls_self("genus.in_principal_genus")
    + [("forms.enumerate_ambiguous_candidates.self_s", "s")]
    + _calls_self("forms.represented_value_coprime")
    + _calls_self("witness.plan")
    + [("witness.request.self_s", "s"), ("trace.overhead_share", "ratio")]
)

# filled by the runner from set-up probes and paired runs, not from spans
NOT_FROM_SPANS = ("factor.spf_build_s", "cli.interpreter_s", "cli.import_s",
                  "cli.import_sympy_s", "trace.overhead_share")


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def _self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Single-threaded calls nest, so children never overlap.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_by_layer(spans) -> dict[str, float]:
    """Self time summed per layer (the name's first component)."""
    out: dict[str, float] = {}
    for span, own in zip(spans, _self_times(spans)):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of PER_LAYER, bar NOT_FROM_SPANS, from spans."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for span, own in zip(spans, _self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        by_name.setdefault(name, []).append(span)

    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(name, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(name, 0.0)

    factorize = by_name.get("factor.factorize", [])
    exhausted = [s for s in factorize if s[5] == "FactorBudgetExceededError"]
    out["factor.factorize.budget_exhausted"] = len(exhausted)
    out["factor.factorize.exhausted_s"] = sum(s[3] - s[2] for s in exhausted)

    found = [s[5] for s in by_name.get("arith.next_prime_in_class", []) if isinstance(s[5], int)]
    out["arith.next_prime_in_class.candidates_per_prime"] = statistics.fmean(found) if found else 0.0

    cf = [s[5] for s in by_name.get("pell.cf_sqrt", []) if isinstance(s[5], list)]
    out["pell.cf_sqrt.period_max"] = max((period for _, period in cf), default=0)
    seen: set = set()
    repeats = 0
    for D, _ in cf:
        repeats += D in seen
        seen.add(D)
    out["pell.cf_sqrt.repeat_share"] = _share(repeats, calls.get("pell.cf_sqrt", 0))

    fund = by_name.get("pell.fundamental_solution", [])
    out["pell.fundamental_solution.cache_hit_share"] = _share(
        sum(s[5] == "hit" for s in fund), len(fund))
    solve = by_name.get("pell.solve_generalized", [])
    out["pell.solve_generalized.none_share"] = _share(sum(s[5] is True for s in solve), len(solve))

    construct_ids = {i for i, s in enumerate(spans) if s[0] == "construct.construct_M"}
    out["construct.construct_M.e2_attempts"] = sum(s[1] in construct_ids for s in solve)

    out["construct.verify_certificate.reject_s"] = sum(
        s[3] - s[2] for s in by_name.get("construct.verify_certificate", []) if s[5] is False)

    out["witness.request.self_s"] = (
        self_s.get("witness.minus_witnesses", 0.0) + self_s.get("witness.plus_witnesses", 0.0))
    return out
