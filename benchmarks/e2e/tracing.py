"""Spans around the public functions of each layer, and what they add up to.

Server side (:class:`SpanRecorder`, :func:`install`): the benchmark's
server launcher replaces the module and class attributes listed in
:data:`TARGETS` with timing wrappers *before* the service starts, so
``src/`` is never edited. The module attributes are the names the
callers resolve at call time — e.g. ``repro.serve.scheduler.
plan_localize``, ``repro.smc.tracker.coordinate_descent`` — which also
splits a function by caller (``coordinate_descent@serve`` vs
``@smc``). Each span is ``(id, parent, name, thread, start, end, key,
extra)``: the parent is the innermost open span on the same thread;
the key is the request (frame) id where the call names one, else its
parent's. Scheduler spans belong to the ``run_once`` cycle above them,
and the cycle's ``take`` span lists the requests it drained. Spans stay
in memory and are written as JSON lines when the server stops.

Loadgen side (:func:`load_spans`, :func:`layer_report`): self time is
a span's duration minus the time its children cover. Each request's
client latency ``L`` splits into

* wire — ``L`` minus the server latency the reply frame carries, less
  the gateway protocol spans of that frame (client, TCP, event loop);
* gateway — the frame's decode/build/reply/encode spans;
* serve.admission — submit until the ``take`` that drained it;
* per-layer self time of the scheduler-thread spans that overlap the
  request's in-server interval (request-weighted: a batch's shared
  work counts once for every request waiting on it);
* unattributed — in-server time no span covers.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

# ----------------------------------------------------------------------
# Server side.
# ----------------------------------------------------------------------


def _frame_key(args, kwargs, result):
    return args[0].get("id"), None


def _decoded_key(args, kwargs, result):
    return result.get("id"), None


def _reply_key(args, kwargs, result):
    return args[0].request_id, None


def _submit_key(args, kwargs, result):
    return args[1].request_id, None


def _take_extra(args, kwargs, result):
    batch, _ = result
    return None, [item.request.request_id for item in batch]


def _kernel_extra(args, kwargs, result):
    return None, [int(result.shape[0]), int(result.shape[1]),
                  int(result.nbytes)]


def _queries_extra(args, kwargs, result):
    return None, len(result)


def _step_extra(args, kwargs, result):
    from repro.smc.weighting import effective_sample_size

    ess = [effective_sample_size(s.weights) for s in result.sample_sets]
    return None, [int(np.count_nonzero(result.active)),
                  int(result.active.size), float(sum(ess))]


#: ``(span name, module, attribute, describe)``. ``attribute`` may be
#: ``Class.method``. ``describe(args, kwargs, result) -> (key, extra)``
#: runs after the span ends, on success only.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("gateway/decode_frame", "repro.gateway.protocol", "decode_frame",
     _decoded_key),
    ("gateway/request_from_frame", "repro.gateway.protocol",
     "localize_request_from_frame", _frame_key),
    ("gateway/request_from_frame", "repro.gateway.protocol",
     "track_request_from_frame", _frame_key),
    ("gateway/reply_to_frame", "repro.gateway.protocol", "reply_to_frame",
     _reply_key),
    ("gateway/encode_frame", "repro.gateway.protocol", "encode_frame",
     _frame_key),
    ("serve.admission/submit", "repro.serve.service",
     "LocalizationService.submit", _submit_key),
    ("serve.admission/offer", "repro.serve.admission",
     "AdmissionQueue.offer", None),
    ("serve.admission/take", "repro.serve.admission",
     "AdmissionQueue.take", _take_extra),
    ("serve.scheduler/run_once", "repro.serve.scheduler",
     "MicroBatchScheduler.run_once", None),
    ("serve.scheduler/fuse_map_matches", "repro.serve.scheduler",
     "fuse_map_matches", None),
    ("serve.scheduler/plan_localize", "repro.serve.scheduler",
     "plan_localize", None),
    ("serve.scheduler/fuse_pool_kernels", "repro.serve.scheduler",
     "fuse_pool_kernels", None),
    ("serve.scheduler/solve_single_user_fused", "repro.serve.scheduler",
     "solve_single_user_fused", None),
    ("serve.scheduler/solve_multi_user", "repro.serve.scheduler",
     "solve_multi_user", None),
    ("fingerprint/coordinate_descent@serve", "repro.serve.scheduler",
     "coordinate_descent", None),
    ("engine/evaluate_geometry_kernels", "repro.engine.kernels",
     "evaluate_geometry_kernels", _kernel_extra),
    ("fpmap/knn_by_signature_batch", "repro.fpmap.index",
     "SpatialIndex.knn_by_signature_batch", _queries_extra),
    ("fpmap/match", "repro.fpmap.map", "FingerprintMap.match", None),
    ("fingerprint/coordinate_descent@smc", "repro.smc.tracker",
     "coordinate_descent", None),
    ("fingerprint/forward_select_active", "repro.smc.tracker",
     "forward_select_active", None),
    ("smc/step", "repro.smc.tracker", "SequentialMonteCarloTracker.step",
     _step_extra),
    ("smc/predict_samples", "repro.smc.tracker", "predict_samples", None),
    ("smc/resample", "repro.smc.resampling", "resample", None),
    ("smc/importance_weights", "repro.smc.tracker", "importance_weights",
     None),
    ("stream/process", "repro.stream.session", "TrackingSession.process",
     None),
]


class SpanRecorder:
    """Thread-safe in-memory span sink (``list.append`` under the GIL)."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable,
             describe: Optional[Callable] = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock, get_ident = time.monotonic, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, get_ident(), start, end,
                              None, None))
                raise
            end = clock()
            stack.pop()
            key, extra = (None, None) if describe is None else describe(
                args, kwargs, result)
            spans.append((span_id, parent, name, get_ident(), start, end, key,
                          extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "thread", "start", "end", "key",
                  "extra")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
        return path


def install(recorder: SpanRecorder) -> None:
    """Replace every :data:`TARGETS` attribute with its traced wrapper."""
    for name, module_name, attribute, describe in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf),
                                           describe))


# ----------------------------------------------------------------------
# Loadgen side.
# ----------------------------------------------------------------------
class Span:
    """One recorded span, linked to its children (the thread stays in the
    file for readers; nesting already implies it)."""

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "key",
                 "extra", "children")

    def __init__(self, record: Dict):
        self.id = record["id"]
        self.parent = record["parent"]
        self.name = record["name"]
        self.layer = self.name.split("/", 1)[0]
        self.start = record["start"]
        self.end = record["end"]
        self.key = record["key"]
        self.extra = record["extra"]
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_segments(self) -> List[Tuple[float, float]]:
        """The parts of ``[start, end]`` no child span covers."""
        segments, cursor = [], self.start
        for child in sorted(self.children, key=lambda c: c.start):
            if child.start > cursor:
                segments.append((cursor, child.start))
            cursor = max(cursor, child.end)
        if self.end > cursor:
            segments.append((cursor, self.end))
        return segments

    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


def load_spans(path) -> Dict[int, Span]:
    """Spans by id, linked to their children; keys inherited from parents."""
    spans: Dict[int, Span] = {}
    with Path(path).open() as handle:
        for line in handle:
            span = Span(json.loads(line))
            spans[span.id] = span
    for span_id in sorted(spans):  # a parent opens first: lower id
        span = spans[span_id]
        parent = spans.get(span.parent)
        if parent is not None:
            parent.children.append(span)
            if span.key is None:
                span.key = parent.key
    return spans


def _subtree(span: Span) -> Iterable[Span]:
    yield span
    for child in span.children:
        yield from _subtree(child)


def _overlap(segments: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in segments)


def _has_ancestor(span: Span, spans: Dict[int, Span], name: str) -> bool:
    node = spans.get(span.parent)
    while node is not None:
        if node.name == name:
            return True
        node = spans.get(node.parent)
    return False


#: Layers whose spans run on the scheduler thread.
SCHEDULER_LAYERS = ("serve.scheduler", "engine", "fpmap", "fingerprint",
                    "smc", "stream")


def layer_report(
    spans: Dict[int, Span],
    requests: Dict[str, Tuple[float, float]],
    window: Tuple[float, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced phase, plus its reconciliation.

    ``requests`` maps each timed request id to ``(client latency,
    server latency from its reply frame)`` in seconds; ``window`` is
    the phase's ``(start, end)`` on the monotonic clock the two
    processes share. Returns ``(metrics, reconciliation)``; the latter
    holds the summed client latency, the sum of its parts (with the
    in-server time no span covers counted independently of the
    leftover), the leftover itself and the smallest self time.
    """
    t0, t1 = window
    own: Dict[str, List[Span]] = defaultdict(list)  # request id -> spans
    taken_by: Dict[str, Span] = {}  # request id -> the take that drained it
    cycles: List[Span] = []
    for span in spans.values():
        if span.key in requests:
            own[span.key].append(span)
        if span.name == "serve.admission/take":
            for request_id in span.extra or ():
                taken_by[request_id] = span
        elif (span.name == "serve.scheduler/run_once"
              and span.end >= t0 and span.start <= t1):
            cycles.append(span)

    # Request-weighted decomposition of the summed client latency.
    parts: Dict[str, float] = defaultdict(float)
    queue_waits: List[float] = []
    segments_of: Dict[int, List[Tuple[float, float, str]]] = {}
    uncovered = 0.0
    for request_id, (latency, server_latency) in requests.items():
        mine = own[request_id]
        submit = next(s for s in mine if s.name == "serve.admission/submit")
        take = taken_by[request_id]
        gateway = sum(s.duration for s in mine if s.layer == "gateway")
        parts["wire"] += latency - server_latency - gateway
        parts["gateway"] += gateway
        queue_waits.append(take.end - submit.start)
        parts["serve.admission"] += take.end - submit.start
        start, done = take.end, submit.start + server_latency
        cycle = spans[take.parent]
        segments = segments_of.get(cycle.id)
        if segments is None:
            segments = segments_of[cycle.id] = [
                (a, b, s.layer) for s in _subtree(cycle)
                for a, b in s.self_segments()
            ]
        covered = 0.0
        for a, b, layer in segments:
            piece = max(0.0, min(b, done) - max(a, start))
            parts[layer] += piece
            covered += piece
        uncovered += max(0.0, done - start) - covered
    total = sum(latency for latency, _ in requests.values())
    unattributed = total - sum(parts.values())

    # Unweighted scheduler-thread time, clipped to the phase window.
    wall = t1 - t0
    busy: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    take_time = kernel_time = run_once_self = 0.0
    batches = 0
    for cycle in cycles:
        run_once_self += cycle.self_time()
        for span in _subtree(cycle):
            busy[span.layer] += _overlap(span.self_segments(), t0, t1)
            counts[span.name] += 1
            if span.name == "serve.admission/take":
                take_time += _overlap([(span.start, span.end)], t0, t1)
                batches += bool(span.extra)
            elif span.name == "engine/evaluate_geometry_kernels":
                rows, cols, nbytes = span.extra
                kernel_time += span.duration
                counts["kernel_rows"] += rows
                counts["kernel_pairs"] += rows * cols
                counts["kernel_bytes"] += nbytes
            elif span.name == "fpmap/knn_by_signature_batch":
                counts["match_queries"] += span.extra
            elif span.name == "fpmap/match":
                counts["match_queries"] += 1
                counts["reseeds"] += _has_ancestor(span, spans, "smc/step")
            elif span.name == "smc/step":
                active, users, ess = span.extra
                counts["active_users"] += active
                counts["users"] += users
                counts["ess"] += ess
    run_time = _overlap([(c.start, c.end) for c in cycles], t0, t1)

    def mean_us(name: str) -> float:
        durations = [s.duration for key in requests for s in own[key]
                     if s.name == name]
        return 1e6 * float(np.mean(durations)) if durations else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "gateway.decode_us": mean_us("gateway/decode_frame"),
        "gateway.request_from_frame_us": mean_us("gateway/request_from_frame"),
        "gateway.reply_to_frame_us": mean_us("gateway/reply_to_frame"),
        "gateway.encode_us": mean_us("gateway/encode_frame"),
        "gateway.latency_share": parts["gateway"] / total,
        "serve.admission.queue_wait_p50_ms": 1e3 * float(np.median(queue_waits)),
        "serve.admission.offer_us": mean_us("serve.admission/offer"),
        "serve.admission.take_wait_share": ratio(take_time, run_time),
        "serve.admission.latency_share": parts["serve.admission"] / total,
        "serve.scheduler.busy_share": (run_time - take_time) / wall,
        "serve.scheduler.self_ms_per_batch": 1e3 * ratio(run_once_self, batches),
        "engine.kernel_calls": counts["engine/evaluate_geometry_kernels"],
        "engine.kernel_rows": counts["kernel_rows"],
        "engine.kernel_ns_per_pair": 1e9 * ratio(kernel_time,
                                                 counts["kernel_pairs"]),
        "engine.kernel_mb_out": counts["kernel_bytes"] / 1e6,
        "fpmap.match_queries": counts["match_queries"],
        "fpmap.reseeds": counts["reseeds"],
        "fingerprint.cd_calls": (
            counts["fingerprint/coordinate_descent@serve"]
            + counts["fingerprint/coordinate_descent@smc"]
        ),
        "smc.steps": counts["smc/step"],
        "smc.active_user_share": ratio(counts["active_users"], counts["users"]),
        "smc.ess_mean": ratio(counts["ess"], counts["users"]),
        "trace.wire_share": parts["wire"] / total,
        "trace.unattributed_share": unattributed / total,
    }
    for layer in SCHEDULER_LAYERS:
        metrics[f"{layer}.latency_share"] = parts[layer] / total
        if layer != "serve.scheduler":
            metrics[f"{layer}.busy_share"] = busy[layer] / wall
    reconciliation = {
        "client_latency_s": total,
        "sum_of_parts_s": sum(parts.values()) + uncovered,
        "unattributed_s": unattributed,
        "min_self_s": min((s.self_time() for s in spans.values()), default=0.0),
    }
    return metrics, reconciliation
