"""Traced solve: spans around the library's public functions while the real
``lbcolor.cli.main`` runs.

``patched`` replaces each function named in ``TRACED``, in the module where
its callers look it up, with a wrapper that records a span around every
call, and puts the originals back when the traced round ends.  The solves
themselves go through ``cli.main`` unchanged, so the spans follow whatever
path the CLI takes.  A function that a later change moves away is skipped;
its time then falls to the span of its caller.

Spans stay in memory and are written out once the run ends.  Counts come
from public return values: ``NiceDecomposition.kinds`` and ``width``,
``Cotree.kinds``, and the ``solver_used`` field of the CLI's output.  The
per-layer metrics are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# (module of lbcolor, attribute, span name).  The ``cli`` spans cover the
# command itself: ``cli.main``'s self time is argument parsing,
# ``cli.cmd_solve``'s is formatting the output, and ``cli.solve_with``'s is
# the registry dispatch plus any solver without a span of its own.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "cmd_solve", "cli.cmd_solve"),
    ("cli", "read_instance", "codec.read_instance"),
    ("cli", "auto_solver_name", "cli.auto_solver_name"),
    ("cli", "solve_with", "cli.solve_with"),
    ("treewidth", "build_nice_decomposition", "treewidth.build_nice_decomposition"),
    ("treewidth", "dp_vertex", "treewidth.dp_vertex"),
    ("treewidth", "dp_edge", "treewidth.dp_edge"),
    ("cographs", "build_cotree", "cographs.build_cotree"),
    ("cographs", "dp_cograph", "cographs.dp_cograph"),
    ("cographs", "solve_cograph_edges", "cographs.solve_cograph_edges"),
    ("cographs", "solve_complete_bipartite", "cographs.solve_complete_bipartite"),
    ("basic", "solve_isolated_k_fixed", "basic.solve_isolated_k_fixed"),
    ("basic", "solve_isolated_unit", "basic.solve_isolated_unit"),
    ("split", "solve_split_k_fixed", "split.solve_split_k_fixed"),
    ("split", "solve_split_singular", "split.solve_split_singular"),
    ("split", "solve_split_edges", "split.solve_split_edges"),
)

# spans named after their ``objective`` argument, e.g. treewidth.dp_vertex.decide
BY_OBJECTIVE = ("treewidth.dp_vertex", "cographs.dp_cograph")

# spans outside a traced solve: one traced set-up, and the correctness checks
SETUP_SPANS = ("codec.write_instance", "generators.generate")
CHECK_SPAN = "instance.validate_coloring"


def declared_metrics() -> dict[str, str]:
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK, encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


class Tracer:
    """Spans as (name, start, end, parent index, instance id), plus counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counters: dict[str, int] = {"layers.errors": 0}
        self._open: list[int] = []
        self._raised = None
        self.instance = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.instance))
        self._open.append(index)
        try:
            yield
        except Exception as exc:
            # an exception leaves through every open span; count it once
            if exc is not self._raised:
                self._raised = exc
                self.counters["layers.errors"] += 1
            raise
        finally:
            self._open.pop()
            name, start, _, parent, instance = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, instance)

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def observe(self, name: str, result) -> None:
        """Counters from the return value of the traced function ``name``."""
        if name == "treewidth.build_nice_decomposition":
            dec, _ = result
            self.peak("treewidth.width_max", dec.width)
            for kind in dec.kinds:
                self.count(f"treewidth.nodes_{kind}")
        elif name == "cographs.build_cotree":
            depth = [0] * len(result.kinds)
            for node in reversed(result.post_order()):
                for ch in result.children[node]:
                    depth[ch] = depth[node] + 1
            self.peak("cographs.cotree_depth_max", max(depth))
            for kind in result.kinds:
                if kind != "leaf":
                    self.count(f"cographs.nodes_{kind}")

    def solved(self, stdout: str) -> None:
        """Count the solver that the CLI's output names."""
        try:
            self.count(f"solver.{json.loads(stdout)['solver_used']}.calls")
        except (ValueError, TypeError, KeyError):
            pass  # the gate reports unreadable output

    def totals(self) -> dict[str, list]:
        """Per span name, [summed self time, calls]; self time is a span's
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - inner
            entry[1] += 1
        return totals

    def dump(self, f, label: str) -> None:
        """Append the spans as JSON lines tagged with ``label``."""
        for name, start, end, parent, instance in self.spans:
            f.write(json.dumps({
                "phase": label, "name": name, "start": start, "end": end,
                "parent": parent, "instance": instance,
            }) + "\n")


def _wrap(tracer, fn, name):
    signature = inspect.signature(fn) if name in BY_OBJECTIVE else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span_name = f"{name}.{bound.arguments['objective']}"
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        tracer.observe(name, result)
        return result

    return traced


@contextmanager
def patched(tracer):
    """Record spans into ``tracer`` for every call of a ``TRACED`` function."""
    saved = []
    try:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(f"lbcolor.{module_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(tracer, fn, name))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(rounds, overhead, checks, build) -> dict[str, tuple[float, str]]:
    """Every declared per-layer metric, for one round over the workload.

    ``rounds`` holds (tracer, wall seconds) per traced round; each span's
    self time is the median over rounds.  ``checks`` traced the correctness
    checks of every traced round, ``build`` one build of the instance files.
    A metric ``<span>.s`` (or ``<span>_s``) is a self time, ``<span>.calls``
    a call count, and any other name a counter; a span or counter that never
    occurred reads 0.  ``trace.unattributed_s`` is the round's wall time not
    covered by a span; ``trace.overhead_pct`` is ``overhead`` as a percentage.
    """
    per_round = [tracer.totals() for tracer, _ in rounds]
    seconds, calls = {}, {}
    for name in {name for totals in per_round for name in totals}:
        seconds[name] = statistics.median(t.get(name, [0.0])[0] for t in per_round)
        calls[name] = per_round[0].get(name, [0.0, 0])[1]
    for name, (total, count) in build.totals().items():
        seconds[name], calls[name] = total, count
    for name, (total, count) in checks.totals().items():
        seconds[name], calls[name] = total / len(rounds), count // len(rounds)
    counters = dict(rounds[0][0].counters)
    counters["layers.errors"] = sum(t.counters["layers.errors"] for t, _ in rounds)
    unattributed = [
        wall - sum(total for total, _ in totals.values())
        for (_, wall), totals in zip(rounds, per_round)
    ]
    counters["trace.unattributed_s"] = statistics.median(unattributed)
    counters["trace.overhead_pct"] = 100.0 * overhead

    metrics = {}
    for metric, unit in declared_metrics().items():
        if metric.endswith((".s", "_s")) and not metric.startswith("trace."):
            value = seconds.get(metric[:-2], 0.0)
        elif metric.endswith(".calls") and not metric.startswith("solver."):
            value = calls.get(metric[: -len(".calls")], 0)
        else:
            value = counters.get(metric, 0)
        metrics[metric] = (value, unit)
    return metrics


def largest_layer(rounds) -> tuple[str, float]:
    """The function with the most self time in a traced round (objectives
    summed), and its share of the round's wall time."""
    per_function: dict[str, float] = {}
    for tracer, _ in rounds:
        for name, (total, _) in tracer.totals().items():
            for base in BY_OBJECTIVE:
                if name.startswith(base + "."):
                    name = base
            per_function[name] = per_function.get(name, 0.0) + total
    name = max(per_function, key=per_function.get)
    return name, per_function[name] / sum(wall for _, wall in rounds)
