"""Span tracing from outside the program, and the per-layer report.

:class:`Tracer` replaces public functions and methods of the program's
layers with wrappers that record one span per call — name, start, end,
parent span, request id and a few counts — and puts the originals back
on :meth:`Tracer.uninstall`. Spans stay in memory until the run ends.

A span's *self time* is its duration minus the time its child spans
cover. Within one request every wrapped call nests on the handling
thread, so the self times of a request's spans add up to the outermost
span; the time between the outermost span and what the caller waited
(HTTP parsing and transport, or loop glue) is reported on its own.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- request scoping -------------------------------------------------

    def set_request(self, request_id: str | None) -> None:
        self._local.request = request_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``owner.attr`` (a class method or a module function).

        ``before(args, kwargs) -> (args, kwargs, attrs)`` may rewrite the
        call and return counts for the span; ``after(result, attrs)`` may
        add counts from the result.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end,
                     getattr(tracer._local, "request", None), attrs)
                )
            if after is not None:
                after(result, attrs)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _conv_counts(args, kwargs):
    conv, x = args[0], args[1]
    n, c_in, length = x.shape
    k = conv.kernel_size
    # 'same' padding, stride 1: L_out == L. One multiply-add per tap,
    # input channel, output channel and output sample; the lowered
    # (im2col) left operand holds N * L_out * C_in * K float64 values.
    flop = 2 * n * length * c_in * k * conv.out_channels
    return args, kwargs, {"flop": flop, "lhs_bytes": 8 * n * length * c_in * k}


def _cache_counts(args, kwargs):
    attrs = {"hit": True}
    compute = args[2] if len(args) > 2 else kwargs.pop("compute")

    def counted():
        attrs["hit"] = False
        return compute()

    return args[:2] + (counted,) + args[3:], kwargs, attrs


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics name."""
    from repro.core import camal, cache, pipeline
    from repro.models import ensemble, training
    from repro.nn import conv, optim

    tracer.wrap(conv.Conv1d, "forward", "nn.conv.forward", before=_conv_counts)
    tracer.wrap(conv.Conv1d, "backward", "nn.conv.backward")
    tracer.wrap(optim.Adam, "step", "nn.optim.step")
    tracer.wrap(ensemble.ResNetEnsemble, "__init__", "models.ensemble.build")
    tracer.wrap(ensemble.ResNetEnsemble, "member_outputs", "models.ensemble.member_outputs")
    tracer.wrap(training, "train_ensemble", "models.training.train_ensemble")
    tracer.wrap(
        camal.CamAL, "localize_watts", "core.camal.localize_watts",
        before=lambda a, k: (a, k, {"windows": np.shape(a[1])[0]}),
    )
    tracer.wrap(camal, "validate_window", "robust.validate")
    tracer.wrap(pipeline, "validate_series", "robust.validate")
    tracer.wrap(pipeline, "extract_windows", "core.pipeline.extract_windows")
    tracer.wrap(pipeline.SlidingWindowLocalizer, "localize_series", "core.pipeline.localize_series")
    tracer.wrap(pipeline.SlidingWindowLocalizer, "localize_house", "core.pipeline.localize_house")
    tracer.wrap(cache.ResultCache, "get_or_compute", "core.cache.get_or_compute", before=_cache_counts)


def install_serve_spans(tracer: Tracer) -> None:
    from repro.serve import admission, batching, service
    from repro.stream import live, sliding

    install_program_spans(tracer)
    svc = service.DeviceScopeService

    def execute_before(args, kwargs):
        tracer.set_request((kwargs.get("trace") or {}).get("request_id"))
        return args, kwargs, {"route": args[1]}

    tracer.wrap(svc, "execute", "serve.service.execute", before=execute_before)
    for route in ("localize", "append", "live_localize", "ingest"):
        tracer.wrap(svc, route, f"serve.service.{route}")
    tracer.wrap(batching.MicroBatcher, "localize", "serve.batching.localize")
    tracer.wrap(
        admission.AdmissionController, "decide", "serve.admission.decide",
        after=lambda decision, attrs: attrs.update(shed=not decision.accepted),
    )
    tracer.wrap(live.LiveStore, "append", "stream.live.append")
    tracer.wrap(sliding, "validate_window", "robust.validate")

    def reuse_counts(loc, attrs):
        attrs.update(reused=loc.reused, computed=loc.computed)

    tracer.wrap(sliding.SlidingCamAL, "localize", "stream.sliding.localize", after=reuse_counts)


def span_table(spans) -> list[dict]:
    """Spans as dicts with their parent's name and self time (ms)."""
    child_time: dict[int, float] = defaultdict(float)
    names = {}
    for span_id, parent, name, start, end, _rid, _attrs in spans:
        names[span_id] = name
        if parent >= 0:
            child_time[parent] += end - start
    return [
        {
            "name": name,
            "parent": names.get(parent),
            "request": rid,
            "ms": (end - start) * 1e3,
            "self_ms": (end - start - child_time[span_id]) * 1e3,
            **attrs,
        }
        for span_id, parent, name, start, end, rid, attrs in spans
    ]


#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER = {
    "nn.conv.forward_ms": "ms",
    "nn.conv.forward_calls": "count",
    "nn.conv.gflop": "GFLOP",
    "nn.conv.lhs_mb": "MiB",
    "nn.conv.backward_ms": "ms",
    "nn.optim.step_ms": "ms",
    "models.ensemble.member_outputs_ms": "ms",
    "core.camal.localize_watts_ms": "ms",
    "core.camal.windows_per_call": "count",
    "core.camal.post_ms": "ms",
    "robust.validate_ms": "ms",
    "core.pipeline.stitch_ms": "ms",
    "serve.http.overhead_ms": "ms",
    "serve.service.execute_ms.localize": "ms",
    "serve.service.execute_ms.append": "ms",
    "serve.service.execute_ms.live_localize": "ms",
    "serve.service.append_ms": "ms",
    "serve.batching.batch_size_mean": "count",
    "serve.batching.wait_ms": "ms",
    "serve.admission.shed_count": "count",
    "core.cache.hit_ratio": "ratio",
    "stream.live.append_ms": "ms",
    "stream.sliding.localize_ms": "ms",
    "stream.sliding.reuse_ratio": "ratio",
    "serve.service.ingest_ms": "ms",
    "models.ensemble.build_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.traced_op_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.blocking_path_ms": "ms",
    "trace.path_coverage": "ratio",
    "trace.ops": "count",
}


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def layer_metrics(rows: list[dict], n_ops: int) -> dict[str, float]:
    """Per-layer metrics over the measured requests' spans.

    ``*_ms`` are self milliseconds per op, except the per-call means
    named below; counts are per op; ratios carry their bases in the
    README's definitions.
    """
    def by(name):
        return [r for r in rows if r["name"] == name]

    def self_per_op(name):
        return sum(r["self_ms"] for r in by(name)) / n_ops

    conv = by("nn.conv.forward")
    sweeps = by("core.camal.localize_watts")
    cache = by("core.cache.get_or_compute")
    sliding = by("stream.sliding.localize")
    reused = sum(r["reused"] for r in sliding)
    computed = sum(r["computed"] for r in sliding)
    batched = [r for r in sweeps if r["parent"] == "serve.batching.localize"]
    return {
        "nn.conv.forward_ms": self_per_op("nn.conv.forward"),
        "nn.conv.forward_calls": len(conv) / n_ops,
        "nn.conv.gflop": sum(r["flop"] for r in conv) / 1e9 / n_ops,
        "nn.conv.lhs_mb": sum(r["lhs_bytes"] for r in conv) / 2**20 / n_ops,
        "nn.conv.backward_ms": self_per_op("nn.conv.backward"),
        "nn.optim.step_ms": self_per_op("nn.optim.step"),
        "models.ensemble.member_outputs_ms": self_per_op("models.ensemble.member_outputs"),
        "core.camal.localize_watts_ms": sum(r["ms"] for r in sweeps) / n_ops,
        "core.camal.windows_per_call": _mean(r["windows"] for r in sweeps),
        "core.camal.post_ms": self_per_op("core.camal.localize_watts"),
        "robust.validate_ms": self_per_op("robust.validate"),
        "core.pipeline.stitch_ms": self_per_op("core.pipeline.localize_series"),
        "serve.service.execute_ms.localize": _mean(
            r["ms"] for r in by("serve.service.execute") if r["route"] == "localize"),
        "serve.service.execute_ms.append": _mean(
            r["ms"] for r in by("serve.service.execute") if r["route"] == "append"),
        "serve.service.execute_ms.live_localize": _mean(
            r["ms"] for r in by("serve.service.execute") if r["route"] == "live_localize"),
        "serve.service.append_ms": self_per_op("serve.service.append"),
        "serve.batching.batch_size_mean": _mean(r["windows"] for r in batched),
        "serve.batching.wait_ms": self_per_op("serve.batching.localize"),
        "serve.admission.shed_count": float(
            sum(1 for r in by("serve.admission.decide") if r["shed"])),
        "core.cache.hit_ratio": _mean(1.0 if r["hit"] else 0.0 for r in cache),
        "stream.live.append_ms": self_per_op("stream.live.append"),
        "stream.sliding.localize_ms": self_per_op("stream.sliding.localize"),
        "stream.sliding.reuse_ratio": reused / (reused + computed) if reused + computed else 0.0,
    }


def setup_metrics(rows: list[dict]) -> dict[str, float]:
    """Set-up layers, summed over one set-up (ms)."""
    return {
        "serve.service.ingest_ms": float(sum(r["ms"] for r in rows if r["name"] == "serve.service.ingest")),
        "models.ensemble.build_ms": float(sum(r["ms"] for r in rows if r["name"] == "models.ensemble.build")),
    }


def self_time_breakdown(rows: list[dict], n_ops: int) -> list[tuple[str, float]]:
    """(span name, self ms per op) along the blocking path, largest first."""
    totals: dict[str, float] = defaultdict(float)
    for r in rows:
        totals[r["name"]] += r["self_ms"]
    return sorted(((k, v / n_ops) for k, v in totals.items()), key=lambda kv: -kv[1])
