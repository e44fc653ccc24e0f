"""Span tracer that measures probdigit's layers from outside the library.

`Tracer.install()` replaces each public function listed in `TARGETS` with a
wrapper, in every probdigit module namespace that binds it (so
`probdigit.remap.decode` is wrapped as well as `probdigit.core.decode`), and
each listed method on the classes that define it.  A wrapper records one
span (id, parent id, item, name, start, end) and folds it into per-name
call counts, inclusive time and self time (span minus the time its child
spans cover).  `uninstall()` puts the originals back, so the untraced run
executes the library exactly as shipped.

Spans are kept in memory up to `SPAN_CAP` and written out by `dump()`;
the aggregates cover every span, including those beyond the cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from probdigit import bijections, cli, configio, core, derivative, numeric, remap

SPAN_CAP = 100_000
# Computed traffic of one float digit step per sample: the three state
# arrays (x, y, prod) are each read and written once, 8 bytes per element.
BYTES_PER_SAMPLE_DIGIT = 3 * 2 * 8


class Target(NamedTuple):
    """A function (home is its module) or a method (home is a class tuple)."""

    label: str
    home: object
    attr: str
    tag: Callable | None = None  # (label, bound arguments) -> span name
    on_result: Callable | None = None  # (tracer, bound arguments, result)
    track_alloc: bool = False


def _closed_form_tag(label, a):
    exact = a["terms"] is None and a["exact"]
    return f"{label}.{'exact' if exact else 'truncated'}"


def _bracket_tag(label, a):
    return f"{label}.d{a['depth']}"


def _cli_tag(label, a):
    return f"{label}.{a['argv'][0]}"


def _decode_result(tracer, a, result):
    tracer.counters["core.decode.digits"] += len(result)


def _evaluate_result(tracer, a, result):
    tracer.maximum("core.value.denominator_bits", result.value.denominator.bit_length())


def _bracket_result(tracer, a, result):
    bits = max(result.lower.denominator.bit_length(), result.upper.denominator.bit_length())
    tracer.maximum("remap.integral_bracket.denominator_bits", bits)


def _remap_values_result(tracer, a, result):
    samples = len(a["xs"])
    tracer.counters["numeric.remap_values.samples"] += samples
    tracer.counters["numeric.remap_values.bytes"] += samples * a["depth"] * BYTES_PER_SAMPLE_DIGIT


FAMILY_CLASSES = (core.Geometric, core.MixedHeadTail)
MAP_CLASSES = (bijections.Identity, bijections.PairSwap, bijections.TablePermutation)

TARGETS = (
    Target("core.p", FAMILY_CLASSES, "p"),
    Target("core.prefix", FAMILY_CLASSES, "prefix"),
    Target("core.digit_of", (core.ProbVector,), "digit_of"),
    Target("core.decode", core, "decode", on_result=_decode_result),
    Target("core.evaluate", core, "evaluate", on_result=_evaluate_result),
    Target("bijections.apply", MAP_CLASSES, "apply"),
    Target("bijections.inverse", MAP_CLASSES, "inverse"),
    Target("bijections.verify_bijection", bijections, "verify_bijection"),
    Target("remap.apply", (remap.DigitRemap,), "apply"),
    Target("remap.apply_inverse", (remap.DigitRemap,), "apply_inverse"),
    Target("remap.closed_form_integral", remap, "closed_form_integral", tag=_closed_form_tag),
    Target(
        "remap.integral_bracket", remap, "integral_bracket",
        tag=_bracket_tag, on_result=_bracket_result,
    ),
    Target("derivative.classify_point", derivative, "classify_point"),
    Target("derivative.expected_log_ratio", derivative, "expected_log_ratio"),
    Target(
        "numeric.remap_values", numeric, "remap_values",
        on_result=_remap_values_result, track_alloc=True,
    ),
    Target("numeric.monte_carlo_integral", numeric, "monte_carlo_integral", track_alloc=True),
    Target("numeric.log_derivative_paths", numeric, "log_derivative_paths", track_alloc=True),
    Target("numeric.sample_rows", numeric, "sample_rows", track_alloc=True),
    Target("configio.parse_rational", configio, "parse_rational"),
    Target("configio.parse_distribution", configio, "parse_distribution"),
    Target("configio.parse_digit_map", configio, "parse_digit_map"),
    Target("configio.read_config_file", configio, "read_config_file"),
    Target("configio.build_run_config", configio, "build_run_config"),
    Target("cli", cli, "main", tag=_cli_tag),
)


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.item = -1  # index of the item being run; shared by its spans
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counters: defaultdict = defaultdict(float)
        self.maxima: dict = {}
        self.spans: list = []
        self.spans_dropped = 0
        self._span_cap = span_cap
        self._stack: list = []  # open frames: [name, span id, child seconds]
        self._next_id = 0
        self._patches: list = []

    def maximum(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _close(self, frame, start: float, end: float) -> None:
        self._stack.pop()
        name, span_id, child = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            self.edges[(parent[0], name)] += 1
        if len(self.spans) < self._span_cap:
            parent_id = parent[1] if parent is not None else 0
            self.spans.append((span_id, parent_id, self.item, name, start, end))
        else:
            self.spans_dropped += 1

    def _wrap(self, target: Target, fn):
        tracer, label, tag, on_result = self, target.label, target.tag, target.on_result
        signature = inspect.signature(fn) if tag or on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            tracer._next_id += 1
            frame = [label if tag is None else tag(label, bound), tracer._next_id, 0.0]
            tracer._stack.append(frame)
            own_alloc = target.track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter())
                if own_alloc:
                    tracer.maximum("numeric.peak_alloc", tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if on_result is not None:
                on_result(tracer, bound, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "probdigit"]
        for target in targets:
            if isinstance(target.home, tuple):
                for cls in target.home:
                    original = cls.__dict__[target.attr]
                    self._patch(cls, target.attr, original, self._wrap(target, original))
                continue
            original = getattr(target.home, target.attr)
            wrapped = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapped)

    def _patch(self, owner, name: str, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def dump(self, path: Path) -> None:
        """One JSON header line, then one JSON list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "fields": ["id", "parent", "item", "name", "start_s", "end_s"],
                "spans": len(self.spans),
                "dropped": self.spans_dropped,
            }
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(tracer: Tracer, items: int, z_scores: list[float]) -> dict:
    """Name -> (value, unit) for every per-layer metric of BENCHMARK.json.

    Counts and self times are per item; `*_ms` of one tagged call kind are
    inclusive milliseconds per call of that kind.
    """
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s

    def per_item(value):
        return value / items

    def self_ms(name):
        return per_item(self_s[name] * 1000)

    def call_ms(name):
        return total_s[name] * 1000 / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    cf = "remap.closed_form_integral"
    cf_calls = calls[f"{cf}.exact"] + calls[f"{cf}.truncated"]
    cf_terms = sum(tracer.edges[(f"{cf}.{k}", "bijections.apply")] for k in ("exact", "truncated"))
    configio_self = sum(v for k, v in self_s.items() if k.startswith("configio."))
    samples = tracer.counters["numeric.remap_values.samples"]
    out = {
        "core.digit_of.calls": (per_item(calls["core.digit_of"]), "calls/item"),
        "core.digit_of.self_ms": (self_ms("core.digit_of"), "ms/item"),
        "core.prefix.calls_per_digit": (
            ratio(tracer.edges[("core.digit_of", "core.prefix")], calls["core.digit_of"]),
            "calls/digit",
        ),
        "core.decode.self_ms": (self_ms("core.decode"), "ms/item"),
        "core.evaluate.self_ms": (self_ms("core.evaluate"), "ms/item"),
        "core.decode.digits": (per_item(tracer.counters["core.decode.digits"]), "digits/item"),
        "core.value.denominator_bits_max": (
            tracer.maxima.get("core.value.denominator_bits", 0), "bits",
        ),
        "core.prefix.calls": (per_item(calls["core.prefix"]), "calls/item"),
        "core.p.calls": (per_item(calls["core.p"]), "calls/item"),
        "core.prefix.self_ms": (self_ms("core.prefix"), "ms/item"),
        "remap.apply.self_ms": (self_ms("remap.apply"), "ms/item"),
        "remap.apply_inverse.self_ms": (self_ms("remap.apply_inverse"), "ms/item"),
        f"{cf}.exact_ms": (call_ms(f"{cf}.exact"), "ms/call"),
        f"{cf}.truncated_ms": (call_ms(f"{cf}.truncated"), "ms/call"),
        f"{cf}.terms": (ratio(cf_terms, cf_calls), "terms/call"),
        "remap.integral_bracket.d8_ms": (call_ms("remap.integral_bracket.d8"), "ms/call"),
        "remap.integral_bracket.d32_ms": (call_ms("remap.integral_bracket.d32"), "ms/call"),
        "remap.integral_bracket.denominator_bits": (
            tracer.maxima.get("remap.integral_bracket.denominator_bits", 0), "bits",
        ),
        "bijections.apply.calls": (per_item(calls["bijections.apply"]), "calls/item"),
        "bijections.inverse.calls": (per_item(calls["bijections.inverse"]), "calls/item"),
        "bijections.verify_bijection.self_ms": (self_ms("bijections.verify_bijection"), "ms/item"),
        "derivative.classify_point.self_ms": (self_ms("derivative.classify_point"), "ms/item"),
        "derivative.expected_log_ratio.self_ms": (
            self_ms("derivative.expected_log_ratio"), "ms/item",
        ),
        "numeric.remap_values.self_ms": (self_ms("numeric.remap_values"), "ms/item"),
        "numeric.remap_values.samples_per_s": (
            ratio(samples, total_s["numeric.remap_values"]), "1/s",
        ),
        "numeric.remap_values.bytes_computed": (
            per_item(tracer.counters["numeric.remap_values.bytes"]) / 1e6, "MB/item",
        ),
        "numeric.peak_alloc_mb": (tracer.maxima.get("numeric.peak_alloc", 0) / 1e6, "MB"),
        "numeric.monte_carlo_integral.z_score": (
            sum(abs(z) for z in z_scores) / len(z_scores) if z_scores else 0.0, "sigma",
        ),
        "configio.parse.self_ms": (per_item(configio_self * 1000), "ms/item"),
    }
    for command in ("decode", "eval-g", "integral", "sample", "selfcheck"):
        name = f"cli.{command}"
        out[f"{name}.self_ms"] = (
            self_s[name] * 1000 / calls[name] if calls[name] else 0.0, "ms/call",
        )
    return out
