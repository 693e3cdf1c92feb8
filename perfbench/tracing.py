"""Boundary tracing for the benchmark: spans around calls into seqlab's
layers, recorded from outside the package.

Each hook replaces a function at the module attribute its caller looks up
(for example ``seqlab.tableaux.syt_count``, which ``avoiders_sequence``
resolves through the ``tableaux`` module globals), and records one span per
call: hook, start, end, parent span and, for a few hooks, a small dict of
counts taken from the arguments or the result. Spans stay in memory in flat
arrays until the run ends. Self time is a span's duration minus the
durations of its direct children; calls are nested and single-threaded, so
children never overlap.

A hook whose module attribute no longer exists is skipped, and every metric
that needs it is reported as absent instead of failing the run. Likewise, if
the counts can no longer be read from a hook's arguments or result (say, the
layer table changed type), the metrics built on those counts are absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "cli"

# Metric name -> (unit, hooks it is computed from). The command span
# (ROOT_SPAN) is the benchmark's own and always present.
LAYER_METRICS = {
    "cli.self_s": ("s", ()),
    "tableaux.advance_s": ("s", ("tableaux.advance_layer",)),
    "tableaux.advance_calls": ("count", ("tableaux.advance_layer",)),
    "tableaux.shapes_total": ("count", ("tableaux.advance_layer",)),
    "tableaux.shapes_max": ("count", ("tableaux.advance_layer",)),
    "tableaux.top_bits": ("bit", ("tableaux.advance_layer",)),
    "tableaux.sequence_self_s": ("s", ("cli.avoiders_sequence",)),
    "partitions.syt_s": ("s", ("tableaux.syt_count",)),
    "partitions.syt_calls": ("count", ("tableaux.syt_count",)),
    "storage.load_s": ("s", ("cli.cache_load",)),
    "storage.store_s": ("s", ("cli.cache_store",)),
    "storage.hit": ("count", ("cli.cache_load",)),
    "storage.partial": ("count", ("cli.cache_load",)),
    "storage.miss": ("count", ("cli.cache_load",)),
    "storage.bytes_written": ("B", ("cli.cache_store",)),
    "recurrences.guess_s": ("s", ("cli.guess",)),
    "recurrences.extend_s": ("s", ("cli.extend",)),
    "recurrences.extend_terms": ("count", ("cli.extend",)),
    "growth.empirical_s": ("s", ("cli.empirical_growth",)),
    "growth.estimate_s": ("s", ("cli.estimate_constant",)),
    "growth.top_bits": ("bit", ("cli.empirical_growth", "cli.estimate_constant")),
    "bessel.det_s": ("s", ("bessel.bessel_determinant",)),
    "bessel.count_s": ("s", ("bessel.avoiders_count",)),
    "bessel.count_calls": ("count", ("bessel.avoiders_count",)),
    "oracle.brute_s": ("s", ("cli.brute_count",)),
    "oracle.words": ("count", ("cli.brute_count",)),
}

# Metrics read from counts taken at the boundary (see _AFTER) rather than
# from span times alone.
COUNTED = {
    "tableaux.shapes_total",
    "tableaux.shapes_max",
    "tableaux.top_bits",
    "storage.hit",
    "storage.partial",
    "storage.miss",
    "recurrences.extend_terms",
    "growth.top_bits",
    "oracle.words",
}

EXPLICIT_HOOKS = (
    "tableaux.advance_layer",
    "tableaux.syt_count",
    "bessel.avoiders_count",
    "bessel.bessel_determinant",
)


def _cli_imports() -> list[str]:
    """Every function ``seqlab.cli`` imported from another seqlab module, as
    ``cli.<name>``: the boundary between the command layer and the rest."""
    cli = importlib.import_module("seqlab.cli")
    names = []
    for name, value in vars(cli).items():
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("seqlab.") and module != "seqlab.cli":
            names.append(f"cli.{name}")
    return sorted(names)


def _max_bits(values) -> int:
    return max((v.bit_length() for v in values), default=0)


def _dir_state(path: Path) -> dict[str, tuple[int, int]]:
    state = {}
    for entry in os.scandir(path) if path.is_dir() else ():
        if entry.is_file():
            stat = entry.stat()
            state[entry.name] = (stat.st_size, stat.st_mtime_ns)
    return state


class Tracer:
    """Installs the hooks, records spans, and turns them into layer metrics."""

    def __init__(self):
        self.hooks = _cli_imports() + list(EXPLICIT_HOOKS)
        self.names: list[str] = []  # hook id -> name
        self.hook_ids: dict[str, int] = {}
        self.installed: dict[str, tuple[object, str, object]] = {}
        self.missing: set[str] = set()
        self.uncounted: set[str] = set()  # hooks whose counts could not be read
        self.span_hook = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_attrs: dict[int, dict] = {}
        self.stack = [-1]
        self.cache_dir: Path | None = None
        self._id(ROOT_SPAN)

    def _id(self, name: str) -> int:
        if name not in self.hook_ids:
            self.hook_ids[name] = len(self.names)
            self.names.append(name)
        return self.hook_ids[name]

    # --- installing -----------------------------------------------------

    def install(self) -> None:
        for hook in self.hooks:
            site, _, attr = hook.partition(".")
            try:
                module = importlib.import_module(f"seqlab.{site}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(hook)
                continue
            self.installed[hook] = (module, attr, original)
            setattr(module, attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, attr, original in self.installed.values():
            setattr(module, attr, original)
        self.installed.clear()

    def _wrap(self, hook: str, fn):
        hook_id = self._id(hook)
        after = _AFTER.get(hook)
        snapshot = hook == "cli.cache_store"
        span_hooks, parents, starts, ends, stack = (
            self.span_hook, self.span_parent, self.span_start, self.span_end, self.stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _dir_state(self.cache_dir) if snapshot and self.cache_dir else None
            index = len(starts)
            span_hooks.append(hook_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None and hook not in self.uncounted:
                try:
                    self.span_attrs[index] = after(args, kwargs, result)
                except (TypeError, AttributeError, IndexError, KeyError):
                    self.uncounted.add(hook)
            if before is not None:
                after_state = _dir_state(self.cache_dir)
                written = sum(
                    size for name, (size, mtime) in after_state.items()
                    if before.get(name) != (size, mtime)
                )
                self.span_attrs[index] = {"bytes": written}
            return result

        return traced

    # --- command spans ---------------------------------------------------

    def begin(self, attrs: dict) -> int:
        index = len(self.span_start)
        self.span_hook.append(self.hook_ids[ROOT_SPAN])
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.span_attrs[index] = attrs
        self.stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self.stack.pop()

    def mark(self) -> int:
        return len(self.span_start)

    # --- metrics ---------------------------------------------------------

    def metrics(self, first: int, last: int) -> dict[str, float]:
        """Layer metrics over spans first..last-1 (one workload iteration),
        with times scaled like the command that holds them (the ``scale``
        count of its command span). Metrics whose hooks are missing are
        left out."""
        dur = {}
        child = {}
        scale = {}  # each span takes its command's host speed scale
        by_hook: dict[str, list[int]] = {}
        for i in range(first, last):
            parent = self.span_parent[i]
            scale[i] = scale[parent] if parent >= first else self.span_attrs.get(i, {}).get("scale", 1.0)
            d = (self.span_end[i] - self.span_start[i]) * scale[i]
            dur[i] = d
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + d
            by_hook.setdefault(self.names[self.span_hook[i]], []).append(i)

        def spans(hook):
            return by_hook.get(hook, [])

        def total(hook):
            return sum(dur[i] for i in spans(hook))

        def self_time(hook):
            return sum(dur[i] - child.get(i, 0.0) for i in spans(hook))

        # a call that raised has no counts
        def attr(i, key):
            return self.span_attrs.get(i, {}).get(key, 0)

        def attr_sum(hook, key):
            return sum(attr(i, key) for i in spans(hook))

        def attr_max(hooks, key):
            return max((attr(i, key) for h in hooks for i in spans(h)), default=0)

        def root_of(i):
            while self.names[self.span_hook[i]] != ROOT_SPAN:
                i = self.span_parent[i]
            return self.span_attrs[i]

        cache = {"hit": 0, "partial": 0, "miss": 0}
        for i in spans("cli.cache_load"):
            if i not in self.span_attrs:
                continue
            held = self.span_attrs[i]["terms"]
            wanted = root_of(i)["nmax"]
            cache["miss" if held is None else "hit" if held > wanted else "partial"] += 1

        values = {
            "cli.self_s": self_time(ROOT_SPAN),
            "tableaux.advance_s": total("tableaux.advance_layer"),
            "tableaux.advance_calls": len(spans("tableaux.advance_layer")),
            "tableaux.shapes_total": attr_sum("tableaux.advance_layer", "shapes"),
            "tableaux.shapes_max": attr_max(("tableaux.advance_layer",), "shapes"),
            "tableaux.top_bits": attr_max(("tableaux.advance_layer",), "bits"),
            "tableaux.sequence_self_s": self_time("cli.avoiders_sequence"),
            "partitions.syt_s": total("tableaux.syt_count"),
            "partitions.syt_calls": len(spans("tableaux.syt_count")),
            "storage.load_s": total("cli.cache_load"),
            "storage.store_s": total("cli.cache_store"),
            "storage.hit": cache["hit"],
            "storage.partial": cache["partial"],
            "storage.miss": cache["miss"],
            "storage.bytes_written": attr_sum("cli.cache_store", "bytes"),
            "recurrences.guess_s": total("cli.guess"),
            "recurrences.extend_s": total("cli.extend"),
            "recurrences.extend_terms": attr_sum("cli.extend", "terms"),
            "growth.empirical_s": total("cli.empirical_growth"),
            "growth.estimate_s": total("cli.estimate_constant"),
            "growth.top_bits": attr_max(("cli.empirical_growth", "cli.estimate_constant"), "bits"),
            "bessel.det_s": total("bessel.bessel_determinant"),
            "bessel.count_s": total("bessel.avoiders_count"),
            "bessel.count_calls": len(spans("bessel.avoiders_count")),
            "oracle.brute_s": total("cli.brute_count"),
            "oracle.words": attr_sum("cli.brute_count", "words"),
        }
        def available(name):
            hooks = LAYER_METRICS[name][1]
            if any(h in self.missing or h not in self.hooks for h in hooks):
                return False
            return name not in COUNTED or not any(h in self.uncounted for h in hooks)

        return {name: value for name, value in values.items() if available(name)}

    def write(self, path: Path) -> None:
        """All spans as JSON lines. The first line maps name ids to names;
        then one ``[name id, start, end, parent, counts]`` per span, with
        times in seconds on the perf_counter clock and parent -1 for none."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                record = [self.span_hook[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
                if i in self.span_attrs:
                    record.append(self.span_attrs[i])
                out.write(json.dumps(record) + "\n")


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# Counts taken at the boundary after a call returns: hook -> f(args, kwargs, result).
_AFTER = {
    "tableaux.advance_layer": lambda a, k, table: {
        "shapes": len(table), "bits": _max_bits(table.values())
    },
    "cli.cache_load": lambda a, k, record: {
        "terms": None if record is None else len(record.terms)
    },
    "cli.extend": lambda a, k, terms: {
        "terms": len(terms) - len(_arg(a, k, 1, "seed"))
    },
    "cli.empirical_growth": lambda a, k, fit: {"bits": _max_bits(_arg(a, k, 0, "terms"))},
    "cli.estimate_constant": lambda a, k, est: {"bits": _max_bits(_arg(a, k, 0, "terms"))},
    "cli.brute_count": lambda a, k, found: {"words": found},
}
