"""Layer spans and counters, recorded from outside the program.

install() replaces each public function of the eight covertlink layers
with a timing wrapper, at every name a caller looks it up by: the
defining module, every module that imported it with `from .x import f`,
and the package namespace. Calls inside a module go through its globals
too, so `min_repetitions` reaching `bit_error_prob` is seen. No file of
the program changes; uninstall() puts the originals back.

Each call becomes a span (id, parent id, layer, function, start, end,
phase, operation). Spans are kept in memory and written when the run
ends. A layer's self time is its spans' time minus the time of the
covertlink spans nested directly inside them. Counters are taken at the
same wrappers.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "planner", "security", "fock_stats", "reliability", "codec", "simulator", "fileio")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_bit_error_prob(t: "Tracer", args, kwargs) -> None:
    t.totals.counts["bit_error_prob.calls"] += 1
    t.totals.counts["bit_error_prob.sum_k"] += int(_arg(args, kwargs, 0, "k"))
    if t.open_calls["min_repetitions"]:
        t.totals.counts["bit_error_prob.in_search"] += 1


def _count_relative_entropy(t: "Tracer", args, kwargs) -> None:
    t.totals.counts["relative_entropy.calls"] += 1
    if t.open_calls["min_pairs_for_budget"]:
        t.totals.counts["relative_entropy.in_search"] += 1


def _count_plan(t: "Tracer", result) -> None:
    grid = result[1]
    t.totals.counts["plan_with_report.calls"] += 1
    t.totals.counts["plan_with_report.points"] += len(grid)
    t.totals.counts["plan_with_report.feasible"] += sum(1 for g in grid if g.feasible)


def _count_write(t: "Tracer", args, kwargs) -> None:
    t.totals.counts["fileio.bytes_written"] += len(_arg(args, kwargs, 1, "payload"))


def _count_trials(t: "Tracer", args, kwargs) -> None:
    t.totals.counts["run_distinguisher.trials"] += int(_arg(args, kwargs, 1, "trials"))


ON_CALL = {
    "bit_error_prob": _count_bit_error_prob,
    "relative_entropy": _count_relative_entropy,
    "atomic_write_bytes": _count_write,
    "run_distinguisher": _count_trials,
}
ON_RESULT = {"plan_with_report": _count_plan}


class PhaseTotals:
    """Aggregates over all spans of one phase (set-up or timed rounds)."""

    def __init__(self):
        self.self_ns = defaultdict(int)  # by layer
        self.incl_ns = defaultdict(int)  # by function
        self.root_write_ns = 0  # fileio write_* spans not nested in fileio
        self.calls = Counter()  # by function
        self.layer_calls = Counter()
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # spans of the untimed output checks land in "check" and count nowhere
        self.phases = {"setup": PhaseTotals(), "round": PhaseTotals(), "check": PhaseTotals()}
        self.totals = self.phases["setup"]
        self.phase = "setup"
        self.op = ""
        self.open_calls = Counter()  # by function
        self.open_layers = Counter()
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.totals = self.phases[phase]

    def install(self, package) -> None:
        wrappers = {}
        modules = [package]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            modules.append(module)
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[fn] = self._wrap(fn, layer, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str):
        on_call = ON_CALL.get(name)
        on_result = ON_RESULT.get(name)
        is_write = layer == "fileio" and name.startswith("write_")
        stack = self._stack
        open_calls = self.open_calls
        open_layers = self.open_layers
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            parent = stack[-1] if stack else None
            # frame: id, parent id, time of nested spans, start
            frame = [tracer._next_id, parent[0] if parent else -1, 0, perf_counter_ns()]
            tracer._next_id += 1
            stack.append(frame)
            open_calls[name] += 1
            open_layers[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                open_calls[name] -= 1
                open_layers[layer] -= 1
                duration = end - frame[3]
                totals = tracer.totals
                totals.self_ns[layer] += duration - frame[2]
                totals.incl_ns[name] += duration
                totals.calls[name] += 1
                totals.layer_calls[layer] += 1
                if parent is not None:
                    parent[2] += duration
                if is_write and not open_layers["fileio"]:
                    totals.root_write_ns += duration
                tracer.spans.append((frame[0], frame[1], layer, name, frame[3], end, tracer.phase, tracer.op))
            if on_result is not None:
                on_result(tracer, result)
            return result

        return functools.update_wrapper(traced, fn)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,parent,layer,function,start_ns,end_ns,phase,operation\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int, traced_run_s: float) -> dict:
    """Per-layer figures for one set-up plus one round of the workload.

    Sums over the set-up phase are divided by the number of set-ups and
    sums over the timed phase by the number of rounds, so runs that fit
    a different number of rounds report the same quantities.
    """
    setup, rounds = tracer.phases["setup"], tracer.phases["round"]

    def per(getter) -> float:
        return getter(setup) / n_setups + getter(rounds) / n_rounds

    def seconds(getter) -> float:
        return per(getter) / 1e9

    counts = lambda key: per(lambda t: t.counts[key])  # noqa: E731
    m = {f"{layer}.self_s": seconds(lambda t, l=layer: t.self_ns[l]) for layer in LAYERS}
    m["planner.mu_evals"] = _ratio(counts("plan_with_report.points"), counts("plan_with_report.calls"))
    m["planner.feasible_ratio"] = _ratio(counts("plan_with_report.feasible"), counts("plan_with_report.points"))
    m["security.min_pairs_for_budget.calls"] = per(lambda t: t.calls["min_pairs_for_budget"])
    m["security.divergence_evals"] = counts("relative_entropy.calls")
    m["security.evals_per_search"] = _ratio(
        counts("relative_entropy.in_search"), per(lambda t: t.calls["min_pairs_for_budget"])
    )
    m["fock_stats.calls"] = per(lambda t: t.layer_calls["fock_stats"])
    m["reliability.bit_error_prob.calls"] = counts("bit_error_prob.calls")
    m["reliability.bit_error_prob.sum_k"] = counts("bit_error_prob.sum_k")
    m["reliability.probes_per_search"] = _ratio(
        counts("bit_error_prob.in_search"), per(lambda t: t.calls["min_repetitions"])
    )
    for name in ("choose_positions", "majority_decode"):
        m[f"codec.{name}.s"] = seconds(lambda t, n=name: t.incl_ns[n])
    for name in ("compute_stats", "run_distinguisher", "simulate_monitoring"):
        m[f"simulator.{name}.s"] = seconds(lambda t, n=name: t.incl_ns[n])
    m["simulator.distinguisher_trials_per_s"] = _ratio(
        counts("run_distinguisher.trials"), m["simulator.run_distinguisher.s"]
    )
    m["fileio.bytes_written"] = counts("fileio.bytes_written")
    m["fileio.write_mb_per_s"] = _ratio(m["fileio.bytes_written"] / 1e6, seconds(lambda t: t.root_write_ns))
    m["tracer.run_s"] = traced_run_s
    m["tracer.spans"] = per(lambda t: sum(t.layer_calls.values()))
    return m
