"""Spans and counters recorded around calls into bellkit's public functions.

The traced run wraps module-level names of the loaded bellkit modules; the
program's files are not changed.  A name bound in several modules (a
function and its ``from ... import`` copies) is wrapped everywhere it is
bound, so calls made inside the package are seen too.  Spans stay in memory
and are written out once, when the run ends.

A span is ``[id, name, start_ns, end_ns, parent_id, job_id, value]``: the
name is ``<layer>.<function>``, times come from the monotonic clock that all
processes on the host share, and ``value`` is a number taken from the call's
arguments or result where a metric needs one.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

ID, NAME, START, END, PARENT, JOB, VALUE = range(7)


@dataclass(frozen=True)
class Hook:
    module: str  # module whose attribute is wrapped
    name: str
    span: Optional[str]  # span name, or None to count calls only
    count: Optional[str] = None  # counter bumped on every call
    value: Optional[Callable] = None  # (args, result) -> number kept on the span


# Calls too frequent for a span each (one per strategy, per probability) are
# counted only.  A hook whose name a later version of bellkit no longer has is
# skipped; its metrics then read 0.
HOOKS = (
    Hook("bellkit.cli", "run_command", "cli.run_command"),
    Hook("bellkit.exprformat", "parse_expression", "exprformat.parse_expression"),
    Hook("bellkit.exprformat", "parse_expansion", "exprformat.parse_expansion"),
    Hook("bellkit.quantum", "parse_model", "quantum.parse_model"),
    Hook("bellkit.scenario", "as_probability_form", "scenario.as_probability_form"),
    Hook(
        "bellkit.lhv",
        "local_bounds",
        "lhv.local_bounds",
        value=lambda args, result: args[0].scenario.assignment_count,
    ),
    Hook("bellkit.lhv", "trivial_bounds", "lhv.trivial_bounds"),
    Hook("bellkit.lhv", "expand_full_joint", "lhv.expand_full_joint"),
    Hook("bellkit.lhv", "evaluate_on_strategy", None, "lhv.evaluate_on_strategy_calls"),
    Hook(
        "bellkit.quantum",
        "expression_value",
        "quantum.expression_value",
        "quantum.expression_value_calls",
    ),
    Hook("bellkit.quantum", "joint_probability", None, "quantum.joint_probability_calls"),
    Hook("bellkit.quantum", "correlator", None, "quantum.correlator_calls"),
    Hook("bellkit.quantum", "mix_with_white_noise", "quantum.mix_with_white_noise"),
    Hook(
        "bellkit.noise",
        "white_noise_tolerance",
        "noise.white_noise_tolerance",
        value=lambda args, result: result.p_critical,
    ),
    Hook(
        "bellkit.noise",
        "tolerance_by_root_scan",
        "noise.root_scan",
        value=lambda args, result: result,
    ),
    Hook(
        "bellkit.optimize",
        "optimize_measurements",
        "optimize.optimize_measurements",
        value=lambda args, result: result.evaluations,
    ),
    Hook(
        "bellkit.optimize",
        "minimize",
        "optimize.minimize",
        value=lambda args, result: float(result.fun),
    ),
)


class Tracer:
    """Holds the spans and counts of one process; single-threaded."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None
        self._stack: list = []
        self._patched: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        counts = self.counts
        if hook.span is None:

            def counted(*args, **kwargs):
                counts[hook.count] += 1
                return original(*args, **kwargs)

            return counted

        spans = self.spans
        stack = self._stack

        def spanned(*args, **kwargs):
            if hook.count:
                counts[hook.count] += 1
            record = [len(spans), hook.span, time.perf_counter_ns(), None,
                      stack[-1] if stack else None, self.job, None]
            spans.append(record)
            stack.append(record[ID])
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter_ns()
                stack.pop()
            if hook.value is not None:
                record[VALUE] = hook.value(args, result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every hooked name in every loaded bellkit module."""
        if self._patched:
            return
        wrappers = {}
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.name, None)
            if original is not None:
                wrappers[id(original)] = (original, self._wrap(hook, original))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "bellkit" or module_name.startswith("bellkit.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
                    self._patched.append((module, attribute, value))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    # -- transfer -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

    def absorb(self, path, job: Optional[str]) -> None:
        """Merge spans and counts dumped by another process, under one job."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        offset = len(self.spans)
        for record in data["spans"]:
            record[ID] += offset
            if record[PARENT] is not None:
                record[PARENT] += offset
            record[JOB] = job
            self.spans.append(record)
        self.counts.update(data["counts"])


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            own[parent] -= record[END] - record[START]
    return own


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(
                json.dumps(dict(zip(
                    ("id", "name", "start_ns", "end_ns", "parent", "job", "value"),
                    record,
                ))) + "\n"
            )
