"""Span tracer for the benchmark's traced run.

The tracer changes no file of the package.  ``install`` wraps, from the
outside, the public functions of each layer module and rebinds every name
that refers to them in every loaded ``heisenfock`` module, because modules
call each other through their own imports (``vertex`` reaches
``act_mode2`` through ``from .heisenberg import act_mode2``).  ``uninstall``
puts the originals back.

Layers, bottom-up, are the package modules::

    scalars -> fock -> heisenberg -> vertex -> whittaker / certify
            -> serialize -> cli

Each wrapped call records a span (id, name, parent id, operation id, start,
end) and adds to its name's call count and self time, which is the span's
duration minus the durations of its child spans.  ``scalars`` arithmetic is
counted, not timed: a per-call timer would cost more than the operation, so
its time shows in the self time of the layer that calls it.  The
``FockVector`` ring methods share the span name ``fock.ring``;
``twisted_mode_apply`` shares ``vertex.mode_apply``; the ``*_to_json`` and
``*_from_json`` serializers share ``serialize.encode`` and
``serialize.decode``.  Spans are kept in memory, up to a cap, and written
out by the caller when the run ends; aggregates are exact whatever the cap.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

SPAN_CAP = 100_000

LAYERS = ("fock", "heisenberg", "vertex", "whittaker", "certify",
          "serialize", "cli")
# Pure formatting, sort-key and parity helpers: their time stays in the caller.
HELPERS = {"fock": {"doubled_mode", "mode_value", "mode_text",
                    "monomial_degree2", "monomial_key", "monomial_text",
                    "degree"}}
RING_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                "scaled", "scaled_fraction", "times_variable")
SCALAR_MUL = ("__mul__", "__rmul__", "scale")
SCALAR_ADD = ("__add__", "__radd__", "__sub__", "__rsub__")

COUNTS = ("scalars.mul", "scalars.add", "scalars.coeff_bits_max",
          "vertex.act_under_mode", "vertex.act_under_mode_zero",
          "certify.steps", "certify.retries", "certify.reduce_terms",
          "serialize.bytes")

# (metric, unit) in the order of BENCHMARK.json's per_layer list
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("scalars.mul.calls", "count"),
    ("scalars.add.calls", "count"),
    ("scalars.coeff_bits_max", "bits"),
    ("fock.weighted_partial.calls", "count"),
    ("fock.weighted_partial.self_s", "s"),
    ("fock.weighted_partial.zero_ratio", "ratio"),
    ("fock.ring.calls", "count"),
    ("fock.ring.self_s", "s"),
    ("heisenberg.act_mode2.calls", "count"),
    ("heisenberg.act_mode2.self_s", "s"),
    ("heisenberg.act_mode2.zero_ratio", "ratio"),
    ("heisenberg.quadratic_act.self_s", "s"),
    ("heisenberg.commutator_check.self_s", "s"),
    ("vertex.mode_apply.calls", "count"),
    ("vertex.mode_apply.self_s", "s"),
    ("vertex.act_per_mode", "calls/mode"),
    ("vertex.act_zero_ratio", "ratio"),
    ("vertex.delta_z_apply.calls", "count"),
    ("vertex.delta_z_apply.self_s", "s"),
    ("vertex.cmn_table.self_s", "s"),
    ("whittaker.solve_fiber.self_s", "s"),
    ("whittaker.verify_whittaker_vector.self_s", "s"),
    ("whittaker.whittaker_type_of.self_s", "s"),
    ("certify.certify_cyclic.self_s", "s"),
    ("certify.verify_certificate.self_s", "s"),
    ("certify.steps", "count"),
    ("certify.retry_ratio", "ratio"),
    ("certify.terms_per_step", "terms"),
    ("serialize.encode.self_s", "s"),
    ("serialize.decode.self_s", "s"),
    ("serialize.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.spawn_s", "s"),
    ("trace.overhead_s", "s"),
)


def span_name(layer: str, attr: str) -> str:
    if layer == "vertex" and attr == "twisted_mode_apply":
        return "vertex.mode_apply"
    if layer == "serialize" and attr.endswith("_to_json"):
        return "serialize.encode"
    if layer == "serialize" and attr.endswith("_from_json"):
        return "serialize.decode"
    return f"{layer}.{attr}"


def coeff_bits(s) -> int:
    """Largest bit length of a numerator or denominator of a scalar."""
    return max(s.re.numerator.bit_length(), s.re.denominator.bit_length(),
               s.im.numerator.bit_length(), s.im.denominator.bit_length())


class Tracer:
    """Spans and counts at the layer boundaries of one process."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.zeros: List[int] = []
        self.open: List[int] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.spans: List[tuple] = []
        self.dropped = 0
        self.op = -1  # operation id stamped on each span
        self._stack: List[list] = []
        self._next = 0
        self._patches: List[tuple] = []
        self._mode_id = self._id("vertex.mode_apply")
        self._post: Dict[str, Callable] = {
            "fock.weighted_partial": self._after_partial,
            "heisenberg.act_mode2": self._after_act,
            "certify.reduce_step": self._after_reduce_step,
            "certify.certify_cyclic": self._after_certify,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the counted methods."""
        wrappers: Dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"heisenfock.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in HELPERS.get(layer, ())
                        or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._span(span_name(layer, attr), obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "heisenfock" and not modname.startswith("heisenfock."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        fock = importlib.import_module("heisenfock.fock")
        for attr in RING_METHODS:
            self._patch(fock.FockVector, attr,
                        self._span("fock.ring", getattr(fock.FockVector, attr)))
        scalars = importlib.import_module("heisenfock.scalars")
        for key, attrs in (("scalars.mul", SCALAR_MUL), ("scalars.add", SCALAR_ADD)):
            for attr in attrs:
                self._patch(scalars.Scalar, attr,
                            self._counter(key, getattr(scalars.Scalar, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.zeros.append(0)
            self.open.append(0)
        return nid

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        calls, self_s, opened = self.calls, self.self_s, self.open
        stack, spans = self._stack, self.spans
        post = self._post.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            opened[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened[nid] -= 1
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((sid, nid, -1 if parent is None else parent[0],
                                  tracer.op, start, end))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(nid, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(x, y):
            result = fn(x, y)
            counts[key] += 1
            if result is not NotImplemented:
                bits = coeff_bits(result)
                if bits > counts["scalars.coeff_bits_max"]:
                    counts["scalars.coeff_bits_max"] = bits
            return result

        return wrapper

    # -- counts taken at span exits -------------------------------------------

    def _after_partial(self, nid, args, result) -> None:
        if not result:
            self.zeros[nid] += 1

    def _after_act(self, nid, args, result) -> None:
        zero = not result
        if zero:
            self.zeros[nid] += 1
        if self.open[self._mode_id]:
            self.counts["vertex.act_under_mode"] += 1
            if zero:
                self.counts["vertex.act_under_mode_zero"] += 1

    def _after_reduce_step(self, nid, args, result) -> None:
        self.counts["certify.reduce_terms"] += len(getattr(args[1], "terms", ()))

    def _after_certify(self, nid, args, result) -> None:
        self.counts["certify.steps"] += len(result.steps)
        self.counts["certify.retries"] += sum(s.retries for s in result.steps)

    # -- results --------------------------------------------------------------

    def dump(self) -> dict:
        """Aggregates and spans as plain JSON-ready data."""
        return {
            "spans": {name: [self.calls[i], self.self_s[i], self.zeros[i]]
                      for i, name in enumerate(self.names)},
            "counts": dict(self.counts),
            "names": list(self.names),
            "log": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }


def merge(into: dict, other: dict) -> dict:
    """Add the aggregates of ``other`` to ``into`` (bit sizes take the max)."""
    spans = into.setdefault("spans", {})
    for name, (calls, self_s, zeros) in other["spans"].items():
        acc = spans.setdefault(name, [0, 0.0, 0])
        acc[0] += calls
        acc[1] += self_s
        acc[2] += zeros
    counts = into.setdefault("counts", dict.fromkeys(COUNTS, 0))
    for key, value in other["counts"].items():
        if key == "scalars.coeff_bits_max":
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value
    into["dropped"] = into.get("dropped", 0) + other.get("dropped", 0)
    return into


def layer_metrics(agg: dict, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from merged aggregates; ``extra`` adds the
    values measured outside the tracer (``cli.import_s``, ``cli.spawn_s``,
    ``trace.overhead_s``)."""
    spans, counts = agg.get("spans", {}), agg.get("counts", {})

    def calls(name):
        return spans.get(name, [0, 0.0, 0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "scalars.mul.calls": counts.get("scalars.mul", 0),
        "scalars.add.calls": counts.get("scalars.add", 0),
        "scalars.coeff_bits_max": counts.get("scalars.coeff_bits_max", 0),
        "vertex.act_per_mode": ratio(counts.get("vertex.act_under_mode", 0),
                                     calls("vertex.mode_apply")),
        "vertex.act_zero_ratio": ratio(counts.get("vertex.act_under_mode_zero", 0),
                                       counts.get("vertex.act_under_mode", 0)),
        "certify.steps": counts.get("certify.steps", 0),
        "certify.retry_ratio": ratio(counts.get("certify.retries", 0),
                                     counts.get("certify.steps", 0)),
        "certify.terms_per_step": ratio(counts.get("certify.reduce_terms", 0),
                                        calls("certify.reduce_step")),
        "serialize.bytes": counts.get("serialize.bytes", 0),
    }
    for metric, _ in PER_LAYER:
        if metric in out or metric in extra:
            continue
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls(name)
        elif field == "self_s":
            out[metric] = self_s(name)
        elif field == "zero_ratio":
            out[metric] = ratio(spans.get(name, [0, 0.0, 0])[2], calls(name))
    out.update(extra)
    return {metric: out[metric] for metric, _ in PER_LAYER}
