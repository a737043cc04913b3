"""Per-layer tracing for the traced run (``--trace 1``).

The benchmark measures layers from its own files: it wraps the public entry
points each layer receives, records one span per call in memory, and turns
the spans into per-layer metrics after the run.  Nothing under ``src/`` is
edited.  Wrapped are:

* the gateway calls a client makes (submit, wait, table, upload, events);
* the datastore, result-cache and executor-pool instance methods the
  scheduler calls, plus the closures it hands to ``submit_work``;
* ``AdmissionController.try_admit``, ``Algorithm.run_batch``,
  ``Ranking.to_dict`` and ``JobRecord.append``;
* the ``graph_summary`` / ``read_graph`` calls the gateway and the catalog
  make, and the catalog's registration methods;
* garbage-collector pauses, through ``gc.callbacks``.

Spans nest per thread (a span's parent is the span open on the same thread
when it started); a span's self time is its duration minus its children's.
:class:`Patcher` restores every wrapped attribute, and untraced runs never
install a wrapper.
"""

from __future__ import annotations

import functools
import gc
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from common import percentile
from repro.algorithms.registry import PAPER_ALGORITHMS

#: Every per-layer metric, as (name, unit, better).  A traced run emits all of
#: them; a layer a workload does not exercise reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("restapi.http_calls_per_request", "count", "lower"),
    ("restapi.self_ms_p50", "ms", "lower"),
    ("gateway.submit_ms_p50", "ms", "lower"),
    ("gateway.table_ms_p50", "ms", "lower"),
    ("gateway.upload_ms_p50", "ms", "lower"),
    ("resilience.admit_us_p50", "us", "lower"),
    ("resilience.shed", "count", "lower"),
    ("scheduler.groups_per_request", "count", "lower"),
    ("scheduler.queue_wait_ms_p50", "ms", "lower"),
    ("scheduler.group_self_ms_p50", "ms", "lower"),
    ("jobs.events_per_request", "count", "lower"),
    ("jobs.append_us_p50", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.get_us_p50", "us", "lower"),
    ("storage.fetch_calls_per_request", "count", "lower"),
    ("storage.fetch_compiled_ms_p50", "ms", "lower"),
    ("storage.store_dataset_ms_p50", "ms", "lower"),
    ("storage.artifact_hit_ratio", "ratio", "higher"),
    ("storage.drop_dataset_ms_p50", "ms", "lower"),
    ("storage.put_result_ms_p50", "ms", "lower"),
    ("storage.append_log_per_request", "count", "lower"),
    ("storage.append_log_us_p50", "us", "lower"),
    ("replication.digest_reads", "count", "lower"),
    ("replication.stale_reads_prevented", "count", "lower"),
    ("executor.queries_per_batch", "count", "higher"),
    ("executor.batch_ms_p50", "ms", "lower"),
    ("executor.self_ms_p50", "ms", "lower"),
    *((f"algorithms.{name}.batch_ms_p50", "ms", "lower") for name in PAPER_ALGORITHMS),
    ("algorithms.busy_share", "ratio", "lower"),
    ("algorithms.cold_batch_ms_p50", "ms", "lower"),
    ("ranking.to_dict_ms_per_request", "ms", "lower"),
    ("analysis.summary_ms_p50", "ms", "lower"),
    ("io.read_graph_ms_p50", "ms", "lower"),
    ("catalog.register_ms_p50", "ms", "lower"),
    ("gc.pause_ms_per_request", "ms", "lower"),
    ("gc.full_collections", "count", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Which end-to-end metric each layer metric should move, and on which
#: workload (written down before measuring; copied into every run record).
PREDICTIONS: Dict[str, str] = {
    "restapi.*": "fresh_p50_ms / repeat_p50_ms on dataset_compare; absent elsewhere",
    "gateway.submit_ms_p50": "fresh_p50_ms on dataset_compare",
    "gateway.table_ms_p50": "fresh_p50_ms on algo_compare (10k-node rankings)",
    "gateway.upload_ms_p50": "requests_per_s and cpu_ms_per_request on upload_churn",
    "resilience.*": "success_ratio and fresh_p50_ms on dataset_compare",
    "scheduler.*": "fresh_p50_ms on dataset_compare; small on algo_compare",
    "jobs.*": "fresh_p50_ms on dataset_compare",
    "cache.*": "repeat_p50_ms on dataset_compare and upload_churn",
    "storage.fetch_*": "fresh_p50_ms on dataset_compare",
    "storage.store_dataset_ms_p50 / storage.artifact_hit_ratio":
        "fresh_p50_ms (first result) on upload_churn",
    "storage.drop_dataset_ms_p50": "requests_per_s on upload_churn",
    "storage.put_result_ms_p50": "fresh_p50_ms on algo_compare and upload_churn",
    "storage.append_log_*": "fresh_p50_ms on dataset_compare",
    "replication.*": "upload_churn only; stale_reads_prevented must stay 0",
    "executor.*": "fresh_p50_ms on all workloads",
    "algorithms.<name>.batch_ms_p50 / algorithms.busy_share":
        "fresh_p50_ms / fresh_p90_ms on algo_compare, little on dataset_compare",
    "algorithms.cold_batch_ms_p50": "fresh_p50_ms (first result) on upload_churn",
    "ranking.to_dict_ms_per_request": "fresh_p50_ms and peak_rss_mb on algo_compare",
    "analysis.summary_ms_p50 / io.read_graph_ms_p50 / catalog.register_ms_p50":
        "requests_per_s on upload_churn",
    "gc.*": "fresh_p90_ms and peak_rss_mb on algo_compare",
    "trace.*": "quality of the trace itself, no end-to-end metric",
}

#: Spans that wait for other threads instead of working: they never count as
#: covered time, but they are still subtracted from their parents.
BLOCKING = frozenset({"gateway.wait_for", "gateway.get_events"})



class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "children", "info")

    def __init__(self, name: str, thread: int, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.children: List["Span"] = []
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


class Recorder:
    """In-memory span store; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.gc_pauses: List[Tuple[float, float, int]] = []
        self._local = threading.local()
        self._gc_started = 0.0
        # Cold-batch detection: datasets stored during the trace, and the
        # compiled graphs first fetched after such a store.
        self._stored: set = set()
        self._new_graphs: set = set()

    def run(self, name: str, fn: Callable, args, kwargs, info=None, extra: Any = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, threading.get_ident(), time.perf_counter(), stack[-1] if stack else None)
        span.info = extra
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, info=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.run(name, fn, args, kwargs, info)

        return wrapper

    def wrap_submit_work(self, fn: Callable) -> Callable:
        """Wrap ``submit_work``: the closure becomes a ``scheduler.group`` span
        whose info is its queue wait (submit to start), in seconds."""
        recorder = self

        @functools.wraps(fn)
        def submit_work(work, /, *args, **kwargs):
            submitted = time.perf_counter()

            def group(*inner_args, **inner_kwargs):
                return recorder.run(
                    "scheduler.group", work, inner_args, inner_kwargs,
                    extra=time.perf_counter() - submitted,
                )

            return fn(group, *args, **kwargs)

        return submit_work

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started:
            self.gc_pauses.append((self._gc_started, time.perf_counter(), info["generation"]))
            self._gc_started = 0.0

    # -- cold-batch bookkeeping (called from span info hooks) ----------- #
    def note_store(self, args, kwargs, result):
        self._stored.add(args[0])

    def note_fetch(self, args, kwargs, result):
        if args[0] in self._stored:
            self._stored.discard(args[0])
            self._new_graphs.add(id(result[0]))

    def note_batch(self, args, kwargs, result):
        algorithm, graph = args[0], args[1]
        cold = id(graph) in self._new_graphs
        self._new_graphs.discard(id(graph))
        return (algorithm.name, cold)


class Patcher:
    """Installs attribute replacements and restores every one of them."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, (type, types.ModuleType)):
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        own = vars(owner)
        had, previous = attr in own, own.get(attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        if had:
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def callback(self, registry: list, fn: Callable) -> None:
        registry.append(fn)
        self._undo.append(lambda: registry.remove(fn))

    @property
    def active(self) -> int:
        return len(self._undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(gateway, recorder: Recorder, patcher: Patcher) -> None:
    """Wrap the public entry points of every layer behind ``gateway``."""
    from repro.algorithms.base import Algorithm
    from repro.platform.jobs import JobRecord
    from repro.platform.resilience import AdmissionController
    from repro.ranking.result import Ranking

    def span(name, info=None):
        return lambda fn: recorder.wrap(name, fn, info)

    for method in ("submit_comparison", "run_queries", "get_comparison_table",
                   "upload_dataset", "wait_for", "get_events", "get_status"):
        patcher.patch(gateway, method, span(f"gateway.{method}"))
    store = gateway.datastore
    for method in ("has_dataset", "fetch_dataset_with_version", "put_result",
                   "append_log", "drop_dataset"):
        patcher.patch(store, method, span(f"storage.{method}"))
    patcher.patch(store, "store_dataset", span("storage.store_dataset", recorder.note_store))
    patcher.patch(store, "fetch_compiled_with_version",
                  span("storage.fetch_compiled_with_version", recorder.note_fetch))
    cache = store.result_cache
    patcher.patch(cache, "get", span("cache.get", lambda a, k, r: r is not None))
    patcher.patch(cache, "put", span("cache.put"))
    pool = gateway.executor_pool
    patcher.patch(pool, "submit_work", recorder.wrap_submit_work)
    patcher.patch(pool, "execute_batch_sync",
                  span("executor.execute_batch_sync", lambda a, k, r: len(a[0])))
    patcher.patch(Algorithm, "run_batch", span("algorithms.run_batch", recorder.note_batch))
    patcher.patch(Ranking, "to_dict", span("ranking.to_dict"))
    patcher.patch(JobRecord, "append", span("jobs.append"))
    patcher.patch(AdmissionController, "try_admit",
                  span("resilience.try_admit", lambda a, k, r: bool(r[0])))
    patcher.patch(sys.modules["repro.platform.gateway"], "graph_summary",
                  span("analysis.graph_summary"))
    patcher.patch(sys.modules["repro.datasets.catalog"], "read_graph", span("io.read_graph"))
    for method in ("register_file", "register_graph"):
        patcher.patch(gateway.catalog, method, span("catalog.register"))
    patcher.callback(gc.callbacks, recorder.on_gc)


# ---------------------------------------------------------------------- #
# spans -> metrics
# ---------------------------------------------------------------------- #
def _union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _subtract(start: float, end: float, holes: Sequence[Tuple[float, float]]):
    pieces, cursor = [], start
    for hole_start, hole_end in sorted(holes):
        if hole_start > cursor:
            pieces.append((cursor, min(hole_start, end)))
        cursor = max(cursor, hole_end)
        if cursor >= end:
            break
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def _outermost(spans: Iterable[Span], prefix: str) -> List[Span]:
    """Spans of one layer that are not nested inside a span of the same layer."""
    return [
        span for span in spans
        if span.name.startswith(prefix)
        and not (span.parent is not None and span.parent.name.startswith(prefix))
    ]


def layer_metrics(
    recorder: Recorder,
    requests: Sequence[Tuple[float, float]],
    counters: Dict[str, float],
    client_thread: int,
    overhead_ratio: float,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Reduce the recorded spans to the :data:`PER_LAYER` metrics.

    ``requests`` are the (start, end) windows of the traced requests; with
    one closed-loop client every span that starts inside a window belongs to
    that request.  ``counters`` are the platform counters' increase over the
    traced requests.  Returns the metrics and the sample count behind each.
    """
    spans = recorder.spans
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    count = max(1, len(requests))
    values: Dict[str, float] = {}
    samples: Dict[str, int] = {}

    def durations(name: str, scale: float = 1e3, self_time: bool = False) -> List[float]:
        return [
            (span.self_time if self_time else span.duration) * scale
            for span in by_name.get(name, [])
        ]

    def p50(metric: str, sample: List[float]) -> None:
        values[metric] = percentile(sample, 50)
        samples[metric] = len(sample)

    # REST: an HTTP round trip minus the gateway calls its handler made.
    http = by_name.get("restapi.http", [])
    gateway_roots = sorted(
        (span.start, span.end) for span in spans
        if span.name.startswith("gateway.") and span.parent is None
        and span.thread != client_thread
    )
    http_children: Dict[int, List[Tuple[float, float]]] = {}
    for call in http:
        inner = [iv for iv in gateway_roots if call.start <= iv[0] <= call.end]
        http_children[id(call)] = inner
    values["restapi.http_calls_per_request"] = len(http) / count
    p50("restapi.self_ms_p50", [
        (call.duration - sum(end - start for start, end in http_children[id(call)])) * 1e3
        for call in http
    ])
    p50("gateway.submit_ms_p50", durations("gateway.submit_comparison"))
    p50("gateway.table_ms_p50", durations("gateway.get_comparison_table"))
    p50("gateway.upload_ms_p50", durations("gateway.upload_dataset"))
    admits = by_name.get("resilience.try_admit", [])
    p50("resilience.admit_us_p50", [span.duration * 1e6 for span in admits])
    values["resilience.shed"] = float(sum(1 for span in admits if span.info is False))
    groups = by_name.get("scheduler.group", [])
    values["scheduler.groups_per_request"] = len(groups) / count
    p50("scheduler.queue_wait_ms_p50", [span.info * 1e3 for span in groups])
    p50("scheduler.group_self_ms_p50", [span.self_time * 1e3 for span in groups])
    appends = by_name.get("jobs.append", [])
    values["jobs.events_per_request"] = len(appends) / count
    p50("jobs.append_us_p50", [span.duration * 1e6 for span in appends])
    gets = by_name.get("cache.get", [])
    values["cache.hit_ratio"] = sum(1 for span in gets if span.info) / max(1, len(gets))
    samples["cache.hit_ratio"] = len(gets)
    values["cache.evictions"] = counters["cache_evictions"]
    p50("cache.get_us_p50", [span.duration * 1e6 for span in gets])
    storage = _outermost(spans, "storage.")
    storage_by: Dict[str, List[Span]] = {}
    for span in storage:
        storage_by.setdefault(span.name, []).append(span)
    fetches = storage_by.get("storage.fetch_compiled_with_version", []) + storage_by.get(
        "storage.fetch_dataset_with_version", []
    )
    values["storage.fetch_calls_per_request"] = len(fetches) / count
    p50("storage.fetch_compiled_ms_p50", [
        span.duration * 1e3 for span in storage_by.get("storage.fetch_compiled_with_version", [])
    ])
    for metric, name in (
        ("storage.store_dataset_ms_p50", "storage.store_dataset"),
        ("storage.drop_dataset_ms_p50", "storage.drop_dataset"),
        ("storage.put_result_ms_p50", "storage.put_result"),
    ):
        p50(metric, [span.duration * 1e3 for span in storage_by.get(name, [])])
    artifact_total = counters["artifact_hits"] + counters["artifact_misses"]
    values["storage.artifact_hit_ratio"] = (
        counters["artifact_hits"] / artifact_total if artifact_total else 0.0
    )
    samples["storage.artifact_hit_ratio"] = int(artifact_total)
    logs = storage_by.get("storage.append_log", [])
    values["storage.append_log_per_request"] = len(logs) / count
    p50("storage.append_log_us_p50", [span.duration * 1e6 for span in logs])
    for key in ("digest_reads", "stale_reads_prevented"):
        values[f"replication.{key}"] = counters[key]
    batches = by_name.get("executor.execute_batch_sync", [])
    values["executor.queries_per_batch"] = (
        sum(span.info for span in batches) / len(batches) if batches else 0.0
    )
    samples["executor.queries_per_batch"] = len(batches)
    p50("executor.batch_ms_p50", durations("executor.execute_batch_sync"))
    p50("executor.self_ms_p50", durations("executor.execute_batch_sync", self_time=True))
    kernels = by_name.get("algorithms.run_batch", [])
    for name in PAPER_ALGORITHMS:
        p50(f"algorithms.{name}.batch_ms_p50", [
            span.duration * 1e3 for span in kernels if span.info[0] == name and not span.info[1]
        ])
    p50("algorithms.cold_batch_ms_p50", [span.duration * 1e3 for span in kernels if span.info[1]])
    wall = sum(end - start for start, end in requests)
    values["algorithms.busy_share"] = sum(
        _union_length(
            [(span.start, span.end) for span in kernels if start <= span.start <= end],
            start, end,
        )
        for start, end in requests
    ) / wall if wall else 0.0
    values["ranking.to_dict_ms_per_request"] = sum(durations("ranking.to_dict")) / count
    p50("analysis.summary_ms_p50", durations("analysis.graph_summary"))
    p50("io.read_graph_ms_p50", durations("io.read_graph"))
    p50("catalog.register_ms_p50", durations("catalog.register"))
    pauses = recorder.gc_pauses
    values["gc.pause_ms_per_request"] = sum(end - start for start, end, _ in pauses) * 1e3 / count
    values["gc.full_collections"] = float(sum(1 for *_, generation in pauses if generation == 2))
    values["trace.unattributed_share"] = _unattributed_share(
        spans, requests, http_children, pauses
    )
    values["trace.overhead_ratio"] = overhead_ratio
    return values, samples


def _unattributed_share(spans, requests, http_children, pauses) -> float:
    """Share of request wall during which no layer was doing its own work.

    A span covers its interval minus its children's (for an HTTP call, minus
    the gateway calls its handler made); waiting spans cover nothing; GC
    pauses cover their interval.
    """
    covered: List[Tuple[float, float]] = []
    for span in spans:
        if span.name in BLOCKING:
            continue
        holes = [(child.start, child.end) for child in span.children]
        holes += http_children.get(id(span), [])
        covered.extend(_subtract(span.start, span.end, holes))
    covered.extend((start, end) for start, end, _ in pauses)
    covered.sort()
    wall = sum(end - start for start, end in requests)
    if not wall:
        return 0.0
    attributed = 0.0
    first = 0
    for start, end in sorted(requests):
        # Intervals are sorted by start; those that ended before this request
        # also ended before every later one.
        while first < len(covered) and covered[first][1] < start:
            first += 1
        window = []
        for position in range(first, len(covered)):
            if covered[position][0] > end:
                break
            window.append(covered[position])
        attributed += _union_length(window, start, end)
    return max(0.0, 1.0 - attributed / wall)
