"""The three workloads: seeded inputs, set-up, the request loop and checks.

Every workload is driven by one closed-loop client thread that issues a
fixed, seeded sequence of requests.  A *request* is one user action: a full
comparison (submit, results ready, top-10 table received) or one upload.

* ``algo_compare`` - paper use case (a): one never-used source on a ~10k-node
  preferential-attachment graph against the seven paper algorithms,
  in-process on the default gateway; every fifth request re-issues a recent
  comparison.
* ``dataset_compare`` - paper use case (b), over HTTP: one shared label with
  one personalised paper algorithm across all 36 Wikipedia snapshots; every
  third request re-issues a recent comparison.
* ``upload_churn`` - user uploads beside reads, in-process on a 4-shard,
  2-replica, quorum-read ring: each cycle re-uploads an edge-list file,
  runs the first comparison on the new version and re-issues two comparisons
  on datasets that did not change.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import common
import layers
from repro.algorithms.registry import PAPER_ALGORITHMS, get_algorithm

#: One line per workload: why it is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "algo_compare": "use case a: 7 paper algorithms x 1 new source on a 10k-node graph; 111 fresh + "
                    "27 repeat per run; kernels and result persistence dominate, dispatch and "
                    "storage barely show",
    "dataset_compare": "use case b over REST: 1 label x 1 personalised algorithm across 36 "
                       "snapshots; 180 fresh + 90 repeat per run; small kernels, so REST, "
                       "scheduler, jobs, cache and fetch dominate",
    "upload_churn": "uploads beside reads on a 4x2 quorum ring; 195 cycles of 1k-node upload + "
                    "first result + 2 repeats; the only workload where storage writes, digests, "
                    "io and cold artifact builds work",
}

#: Requests issued per second of ``--seconds``.  Sized on a 2-core host so a
#: run's fixed request count fits its time budget, yields at least 10 fresh
#: samples beyond p90 at the default budget, and (algo_compare) keeps peak
#: memory near 1 GB: the platform keeps every finished 10k-node comparison.
REQUESTS_PER_SECOND = {"algo_compare": 4.6, "dataset_compare": 9.0, "upload_churn": 26.0}
SETUP_RUNS = 7
REQUEST_TIMEOUT_S = 60.0
#: Requests not started within this many times ``--seconds`` are not issued;
#: they count as failed, so a much slower program still exits in time.
DEADLINE_FACTOR = 3.0


# ---------------------------------------------------------------------- #
# requests and the fresh/repeat classifier
# ---------------------------------------------------------------------- #
@dataclass
class Request:
    kind: str                                   # "fresh", "repeat" or "upload"
    queries: List[Dict[str, Any]] = field(default_factory=list)
    version: Dict[str, int] = field(default_factory=dict)  # dataset -> upload count
    original: Optional[int] = None              # index of the request a repeat re-issues
    upload: Optional[Tuple[str, int]] = None    # (dataset id, file index)


def query_keys(request: Request) -> List[tuple]:
    """Keys of the request's personalised queries (global ones have none)."""
    return [
        (
            query["dataset_id"], request.version.get(query["dataset_id"], 0),
            query["algorithm"], tuple(sorted((query.get("parameters") or {}).items())),
            query["source"],
        )
        for query in request.queries
        if query.get("source") is not None
    ]


class KeyLedger:
    """Files each comparison as fresh or repeat from the keys issued so far.

    A comparison is *fresh* only when none of its personalised query keys was
    ever issued before in the run; it is a *repeat* when all of them were.
    Anything in between is a planning error and raises.
    """

    def __init__(self) -> None:
        self._issued: set = set()

    def classify(self, request: Request) -> str:
        keys = query_keys(request)
        seen = sum(1 for key in keys if key in self._issued)
        if seen == 0:
            return "fresh"
        if seen == len(keys):
            return "repeat"
        raise ValueError(f"request mixes {seen} issued and {len(keys) - seen} new query keys")

    def issue(self, request: Request) -> str:
        kind = self.classify(request)
        self._issued.update(query_keys(request))
        return kind


def comparison(dataset_ids: Sequence[str], algorithms: Sequence[str], source: str,
               parameters: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    return [
        {
            "dataset_id": dataset_id,
            "algorithm": algorithm,
            "source": source if get_algorithm(algorithm).is_personalized else None,
            "parameters": dict(parameters or {}),
        }
        for dataset_id in dataset_ids
        for algorithm in algorithms
    ]


# ---------------------------------------------------------------------- #
# clients
# ---------------------------------------------------------------------- #
class InProcessClient:
    """Calls the gateway directly, as the CLI does."""

    def __init__(self, gateway) -> None:
        self.gateway = gateway

    def compare(self, queries: List[Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
        gateway = self.gateway
        query_set = gateway.new_query_set()
        for query in queries:
            gateway.add_query(query_set, query["dataset_id"], query["algorithm"],
                              source=query["source"], parameters=query["parameters"])
        comparison_id = gateway.submit_comparison(query_set)
        progress = gateway.wait_for(comparison_id, timeout_seconds=REQUEST_TIMEOUT_S)
        if progress.state.value != "completed":
            raise RuntimeError(f"comparison {comparison_id} ended {progress.state.value}")
        return comparison_id, gateway.get_comparison_table(comparison_id, k=10).as_dict()

    def upload(self, dataset_id: str, path: Path) -> Dict[str, Any]:
        return self.gateway.upload_dataset(dataset_id, path, replace=True)


class RestClient:
    """POST (async) -> long-poll events -> GET results?k=10, over HTTP."""

    def __init__(self, host: str, port: int, recorder: Optional[layers.Recorder] = None) -> None:
        self.host, self.port = host, port
        self.call = self._call if recorder is None else recorder.wrap("restapi.http", self._call)

    def _call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, Any]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def compare(self, queries: List[Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
        status, body = self.call("POST", "/api/comparisons",
                                 {"queries": queries, "synchronous": False})
        if status != 201:
            raise RuntimeError(f"submission refused with {status}: {body}")
        comparison_id = body["comparison_id"]
        after, deadline = 0, time.monotonic() + REQUEST_TIMEOUT_S
        while True:
            status, body = self.call(
                "GET", f"/api/comparisons/{comparison_id}/events?after={after}&timeout=10")
            if status != 200:
                raise RuntimeError(f"events poll failed with {status}: {body}")
            after = body["next_after"]
            if body["state"] in ("completed", "failed", "cancelled"):
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"comparison {comparison_id} timed out")
        if body["state"] != "completed":
            raise RuntimeError(f"comparison {comparison_id} ended {body['state']}")
        status, table = self.call("GET", f"/api/comparisons/{comparison_id}/results?k=10")
        if status != 200:
            raise RuntimeError(f"results failed with {status}: {table}")
        return comparison_id, table


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Base: seeded plan, repeated set-up, request loop, output check."""

    name = ""
    #: Requests per block of the traced run.  Blocks alternate untraced and
    #: traced; a block spans whole periods of the request pattern, so both
    #: halves see the same mix and the same heap growth.
    trace_block = 10

    def __init__(self, seed: int, requests: int, work_dir: Path) -> None:
        self.seed = seed
        self.requests = requests
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ledger = KeyLedger()
        self.plan: List[Request] = []
        self.gateway = None
        self.client = None

    # -- to implement ------------------------------------------------- #
    def make_inputs(self) -> None:
        """Generate the seeded inputs the set-up needs (run once)."""

    def setup(self) -> None:
        """Build the platform, load the data and warm every algorithm up."""
        raise NotImplementedError

    def build_plan(self) -> None:
        raise NotImplementedError

    def graph_for_check(self, request: Request, dataset_id: str):
        raise NotImplementedError

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown()
            self.gateway = None

    def make_client(self, recorder: Optional[layers.Recorder]):
        return InProcessClient(self.gateway)

    # -- shared ------------------------------------------------------- #
    def warm(self, request: Request) -> None:
        self.ledger.issue(request)
        self.client.compare(request.queries)

    def timed_setups(self, runs: int, speed: common.HostSpeed) -> Tuple[List[float], List[float]]:
        """Set up ``runs`` times; return the durations in s, scaled and raw.

        Each duration is scaled by the host-speed readings taken just before
        and just after its set-up, and by the steal during it.
        """
        scaled, raw = [], []
        for attempt in range(runs):
            if attempt:
                self.close()
                # Every set-up starts from a collected heap, not from the
                # previous set-up's garbage.
                gc.collect()
            readings = [speed.measure() for _ in range(3)]
            ticks = common.host_ticks()
            started = time.perf_counter()
            self.setup()
            raw.append(time.perf_counter() - started)
            scale_ticks = (ticks, common.host_ticks())
            readings += [speed.measure() for _ in range(3)]
            scaled.append(raw[-1] * speed.wall_scale(readings, *scale_ticks))
        return scaled, raw


class AlgoCompare(Workload):
    name = "algo_compare"
    nodes = 10_000
    repeat_every = 5

    def make_inputs(self) -> None:
        self.sources = [f"n{node}" for node in range(self.nodes)]
        self.rng.shuffle(self.sources)
        self.warmups = [
            Request("fresh", comparison(["pa-10k"], PAPER_ALGORITHMS, source))
            for source in self.sources[:2]
        ]
        self.sources = self.sources[2:]

    def make_graph(self):
        from repro.graph.generators import preferential_attachment_graph

        graph = preferential_attachment_graph(
            self.nodes, out_degree=6, reciprocation_probability=0.3,
            seed=self.seed, name="pa-10k",
        )
        for node in range(graph.number_of_nodes()):
            graph.set_label(node, f"n{node}")
        return graph

    def setup(self) -> None:
        from repro.platform.gateway import ApiGateway

        self.ledger = KeyLedger()
        self.gateway = ApiGateway()
        self.graph = self.make_graph()
        self.gateway.upload_dataset("pa-10k", self.graph)
        self.client = InProcessClient(self.gateway)
        for request in self.warmups:
            self.warm(request)

    def build_plan(self) -> None:
        fresh: List[int] = []
        sources = iter(self.sources)
        for index in range(self.requests):
            if index % self.repeat_every == self.repeat_every - 1 and fresh:
                original = self.rng.choice(fresh[-(self.repeat_every - 1):])
                self.plan.append(Request("repeat", self.plan[original].queries,
                                         original=original))
                continue
            fresh.append(index)
            self.plan.append(Request("fresh", comparison(["pa-10k"], PAPER_ALGORITHMS,
                                                         next(sources))))

    def graph_for_check(self, request: Request, dataset_id: str):
        return self.graph


class DatasetCompare(Workload):
    name = "dataset_compare"
    repeat_every = 3
    trace_block = 15
    #: Algorithm of each fresh request, in turn.  Cyclerank with K <= 3 has
    #: ~0.1 ms kernels here, so its comparisons are almost all platform
    #: overhead; Pers. 2DRank has the heaviest kernel.  With three cheap and
    #: two heavy requests in every five, p50 falls inside the Cyclerank cost
    #: mode and p90 inside the Pers. 2DRank one, never between two modes.
    fresh_mix = ("cyclerank", "personalized-2drank", "cyclerank", "personalized-2drank",
                 "cyclerank")
    alphas = tuple(round(0.70 + 0.005 * step, 3) for step in range(41))
    cyclerank_variants = tuple(
        (k, sigma) for k in (2, 3) for sigma in ("const", "exp", "lin", "quad")
    )

    def make_inputs(self) -> None:
        from repro.datasets.catalog import default_catalog

        catalog = default_catalog()
        self.dataset_ids = catalog.identifiers(family="wikipedia")
        shared = set.intersection(*(set(catalog.load(d).labels()) for d in self.dataset_ids))
        labels = sorted(shared)
        algorithms = sorted(set(self.fresh_mix))
        # One shuffled pool of never-issued (label, parameters) keys per algorithm.
        self.pools: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for algorithm in algorithms:
            if algorithm == "cyclerank":
                variants = [{"k": k, "sigma": sigma} for k, sigma in self.cyclerank_variants]
            else:
                variants = [{"alpha": alpha} for alpha in self.alphas]
            pool = [(label, params) for label in labels for params in variants]
            self.rng.shuffle(pool)
            self.pools[algorithm] = pool
        self.warmups = [self._fresh(algorithm) for algorithm in algorithms]

    def _fresh(self, algorithm: str) -> Request:
        if not self.pools[algorithm]:
            raise ValueError(f"no never-used {algorithm} keys left; lower --seconds")
        label, params = self.pools[algorithm].pop()
        return Request("fresh", comparison(self.dataset_ids, [algorithm], label, params))

    def setup(self) -> None:
        from repro.platform.gateway import ApiGateway
        from repro.platform.resilience import estimate_cost
        from repro.platform.restapi import RestApiServer

        self.ledger = KeyLedger()
        largest = max(estimate_cost(request.queries) for request in self.warmups)
        # Admission and deadline are on, sized never to fire for one client.
        self.gateway = ApiGateway(admission_max_cost=4 * largest, default_deadline_ms=60_000)
        self.server = RestApiServer(self.gateway)
        self.host, self.port = self.server.start()
        self.client = RestClient(self.host, self.port)
        for request in self.warmups:
            self.warm(request)

    def make_client(self, recorder):
        return RestClient(self.host, self.port, recorder)

    def close(self) -> None:
        if self.gateway is not None:
            self.server.stop()
        super().close()

    def build_plan(self) -> None:
        fresh: List[int] = []
        for index in range(self.requests):
            if index % self.repeat_every == self.repeat_every - 1 and fresh:
                original = self.rng.choice(fresh[-(self.repeat_every - 1):])
                self.plan.append(Request("repeat", self.plan[original].queries,
                                         original=original))
                continue
            fresh.append(index)
            self.plan.append(self._fresh(self.fresh_mix[len(fresh) % len(self.fresh_mix)]))

    def graph_for_check(self, request: Request, dataset_id: str):
        return self.gateway.catalog.load(dataset_id)


class UploadChurn(Workload):
    name = "upload_churn"
    trace_block = 8
    #: 1k rather than 3k nodes: every upload promotes its graph's containers
    #: to the oldest GC generation, and at 3k nodes ~25 full collections of
    #: 130-290 ms (over the kept results) fell on ~15% of first results,
    #: putting fresh p90 on the edge of the GC mode.  At 1k nodes a run has
    #: fewer full collections than a tenth of its first results.
    nodes = 1_000
    files = 4
    users = 3
    repeats_per_cycle = 2

    def make_inputs(self) -> None:
        self.paths = [self.work_dir / f"graph-{index}.tsv" for index in range(self.files)]
        self.file_seeds = [self.rng.randrange(2**31) for _ in range(self.files)]
        self.user_ids = [f"user-{index}" for index in range(self.users)]

    def write_files(self) -> None:
        from repro.graph.generators import preferential_attachment_graph
        from repro.io.registry import write_graph

        self.work_dir.mkdir(parents=True, exist_ok=True)
        for path, seed in zip(self.paths, self.file_seeds):
            graph = preferential_attachment_graph(
                self.nodes, out_degree=4, reciprocation_probability=0.3, seed=seed,
                name=path.stem,
            )
            for node in range(graph.number_of_nodes()):
                graph.set_label(node, f"n{node}")
            write_graph(graph, path)

    def setup(self) -> None:
        from repro.platform.gateway import ApiGateway

        self.ledger = KeyLedger()
        self.write_files()
        self.gateway = ApiGateway(shards=4, replicas=2, read_consistency="quorum")
        self.client = InProcessClient(self.gateway)
        for index, user in enumerate(self.user_ids):
            self.client.upload(user, self.paths[index])
            self.warm(self._first(user, version=0, rng=random.Random(index)))

    def _first(self, user: str, version: int, rng: random.Random) -> Request:
        # Every node of a preferential-attachment graph has edges, so every
        # label appears in the edge-list file.
        source = f"n{rng.randrange(self.nodes)}"
        return Request("fresh", comparison([user], PAPER_ALGORITHMS, source),
                       version={user: version})

    def build_plan(self) -> None:
        current = {user: index for index, user in enumerate(self.user_ids)}
        versions = {user: 0 for user in self.user_ids}
        last: Dict[str, int] = {}
        for cycle in range(max(1, self.requests // (2 + self.repeats_per_cycle))):
            user = self.user_ids[cycle] if cycle < self.users else self.rng.choice(self.user_ids)
            file_index = self.rng.choice([f for f in range(self.files) if f != current[user]])
            current[user] = file_index
            versions[user] += 1
            self.plan.append(Request("upload", upload=(user, file_index)))
            first = self._first(user, versions[user], self.rng)
            first.upload = (user, file_index)
            last[user] = len(self.plan)
            self.plan.append(first)
            # Repeats re-issue the latest comparison of a user whose dataset
            # did not change since; the first cycles have fewer candidates.
            others = [other for other in self.user_ids if other != user and other in last]
            for _ in range(self.repeats_per_cycle if others else 0):
                original = last[self.rng.choice(others)]
                self.plan.append(Request("repeat", self.plan[original].queries,
                                         version=self.plan[original].version,
                                         original=original))

    def graph_for_check(self, request: Request, dataset_id: str):
        from repro.io.registry import read_graph

        file_index = self.plan[request.original].upload[1] if request.kind == "repeat" \
            else request.upload[1]
        return read_graph(self.paths[file_index], name=dataset_id)

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "algo_compare": AlgoCompare,
    "dataset_compare": DatasetCompare,
    "upload_churn": UploadChurn,
}


# ---------------------------------------------------------------------- #
# running a phase
# ---------------------------------------------------------------------- #
@dataclass
class PhaseResult:
    latencies: Dict[str, List[float]]       # ms, scaled to the reference host
    raw_latencies: Dict[str, List[float]]   # ms, as measured
    windows: List[Tuple[float, float]]
    answers: Dict[int, Tuple[str, Dict[str, Any]]]
    attempted: int
    failed: int
    errors: List[str]
    wall: float
    cpu: float                              # s, without the host-speed kernel
    steal_share: float
    readings: List[float]                   # host-speed kernel times, ms


def run_phase(workload: Workload, client, indices: Sequence[int], keep: set,
              deadline: float, speed: common.HostSpeed) -> PhaseResult:
    """Issue the planned requests ``indices`` one after the other.

    The host-speed kernel runs before each request and once after the last;
    each latency is scaled by the median of the four readings around it and
    by the steal over the same span.
    The answers of the requests in ``keep`` are returned for the output
    check.  Requests not started by ``deadline`` (a ``perf_counter`` value)
    are not attempted.
    """
    done: List[Tuple[str, float, int]] = []     # kind, ms, reading before it
    windows, answers, errors, readings, ticks = [], {}, [], [], []
    attempted = failed = 0
    kernel_cpu_ms = speed.cpu_ms
    phase = common.Phase()
    for index in indices:
        if time.perf_counter() > deadline:
            break
        request = workload.plan[index]
        kind = "upload" if request.kind == "upload" else workload.ledger.issue(request)
        if kind != request.kind:
            raise AssertionError(f"request {index} planned {request.kind} but filed {kind}")
        attempted += 1
        readings.append(speed.measure())
        ticks.append(common.host_ticks())
        started = time.perf_counter()
        try:
            if kind == "upload":
                user, file_index = request.upload
                client.upload(user, workload.paths[file_index])
                answer = None
            else:
                answer = client.compare(request.queries)
        except Exception as exc:  # every failure counts against success_ratio
            failed += 1
            errors.append(f"request {index} ({kind}): {exc!r}")
            continue
        finished = time.perf_counter()
        done.append((kind, (finished - started) * 1e3, len(readings) - 1))
        windows.append((started, finished))
        if index in keep:
            answers[index] = answer
    readings.append(speed.measure())
    ticks.append(common.host_ticks())
    phase.stop()
    latencies: Dict[str, List[float]] = {"fresh": [], "repeat": [], "upload": []}
    raw: Dict[str, List[float]] = {"fresh": [], "repeat": [], "upload": []}
    for kind, elapsed, at in done:
        first, last = max(0, at - 1), min(len(readings), at + 3) - 1
        raw[kind].append(elapsed)
        latencies[kind].append(elapsed * speed.wall_scale(readings[first:last + 1],
                                                          ticks[first], ticks[last]))
    cpu = phase.cpu - (speed.cpu_ms - kernel_cpu_ms) / 1e3
    return PhaseResult(latencies, raw, windows, answers, attempted, failed, errors,
                       phase.wall, cpu, phase.steal_share, readings)


def sample_checks(workload: Workload, indices: Sequence[int]) -> set:
    """A seeded sample of comparisons from each class to verify after the run."""
    rng = random.Random(f"check:{workload.name}:{workload.seed}")
    chosen = set()
    for kind, size in (("fresh", 6), ("repeat", 4)):
        members = [index for index in indices if workload.plan[index].kind == kind]
        chosen.update(rng.sample(members, min(size, len(members))))
    return chosen


def platform_counters(gateway) -> Dict[str, float]:
    stats = gateway.get_platform_stats()
    replication = stats.get("shards", {}).get("replication", {})
    return {
        "cache_evictions": stats["cache"]["evictions"],
        "artifact_hits": stats["artifacts"]["hits"],
        "artifact_misses": stats["artifacts"]["misses"],
        "digest_reads": replication.get("digest_reads", 0),
        "stale_reads_prevented": replication.get("stale_reads_prevented", 0),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> Dict[str, Any]:
    """Run one workload; return the result line plus the run record."""
    requests = max(8, round(seconds * REQUESTS_PER_SECOND[workload_name]))
    work_dir = root / ".perfbench" / f"work-{workload_name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[workload_name](seed, requests, work_dir)
    try:
        return _run(workload, seconds, trace)
    finally:
        workload.close()


def _run(workload: Workload, seconds: float, trace: bool) -> Dict[str, Any]:
    import checks

    workload.make_inputs()
    speed = common.HostSpeed()
    setup_durations, setup_raw = workload.timed_setups(1 if trace else SETUP_RUNS, speed)
    workload.build_plan()
    indices = list(range(len(workload.plan)))
    checked = sample_checks(workload, indices)
    # A sampled repeat is checked against its original's answer.
    keep = checked | {workload.plan[index].original for index in checked
                      if workload.plan[index].kind == "repeat"}
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    record: Dict[str, Any] = {"setup_s": setup_durations, "setup_raw_s": setup_raw}
    if trace:
        metrics, phases = traced_run(workload, indices, keep, deadline, speed, record)
    else:
        phases = [run_phase(workload, workload.client, indices, keep, deadline, speed)]
        metrics = end_to_end(phases[0], setup_durations, len(indices))
    answers = {index: answer for phase in phases for index, answer in phase.answers.items()}
    mismatches = checks.verify(workload, sorted(checked), answers)
    latencies = {
        kind: [value for phase in phases for value in phase.latencies[kind]]
        for kind in ("fresh", "repeat", "upload")
    }
    raw = {
        kind: [value for phase in phases for value in phase.raw_latencies[kind]]
        for kind in ("fresh", "repeat", "upload")
    }
    completed = sum(phase.attempted - phase.failed for phase in phases)
    record.update({
        "requests_planned": len(workload.plan),
        "checked": sorted(checked),
        "mismatches": mismatches,
        "errors": [error for phase in phases for error in phase.errors],
        "samples": {kind: common.summarise(values) for kind, values in latencies.items()},
        "latencies_ms": latencies,
        "raw_latencies_ms": raw,
        "host_speed_ms": [value for phase in phases for value in phase.readings],
        "timed_wall_s": sum(phase.wall for phase in phases),
        "host_steal_share": max(phase.steal_share for phase in phases),
    })
    return {
        "correct": not mismatches,
        # Requests never issued before the deadline count as attempted and failed.
        "attempted": len(indices),
        "failed": len(indices) - completed,
        "metrics": metrics,
        "record": record,
    }


def traced_run(workload: Workload, indices: List[int], keep: set, deadline: float,
               speed: common.HostSpeed, record: Dict[str, Any]):
    """Alternate untraced and traced blocks; reduce the traced spans to metrics."""
    recorder = layers.Recorder()
    client = workload.make_client(recorder)
    plain: List[PhaseResult] = []
    traced: List[PhaseResult] = []
    counters = dict.fromkeys(platform_counters(workload.gateway), 0.0)
    # Short runs still get one untraced and one traced block.
    size = min(workload.trace_block, max(1, len(indices) // 2))
    for number, start in enumerate(range(0, len(indices), size)):
        block = indices[start:start + size]
        if number % 2 == 0:
            plain.append(run_phase(workload, workload.client, block, keep, deadline, speed))
            continue
        patcher = layers.Patcher()
        before = platform_counters(workload.gateway)
        layers.install(workload.gateway, recorder, patcher)
        try:
            traced.append(run_phase(workload, client, block, keep, deadline, speed))
        finally:
            patcher.restore()
        for key, value in platform_counters(workload.gateway).items():
            counters[key] += value - before[key]

    def wall_per_request(results: List[PhaseResult]) -> float:
        walls = [ms for r in results for values in r.raw_latencies.values() for ms in values]
        return sum(walls) / max(1, len(walls))

    values, samples = layers.layer_metrics(
        recorder,
        [window for result in traced for window in result.windows],
        counters,
        threading.get_ident(),
        wall_per_request(traced) / wall_per_request(plain),
    )
    record["per_layer_samples"] = samples
    record["spans"] = [[span.name, span.thread, span.start, span.end] for span in recorder.spans]
    metrics = {name: common.metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
    return metrics, plain + traced


def end_to_end(result: PhaseResult, setup_durations: List[float],
               planned: int) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics; every timing is scaled to the reference host."""
    completed = result.attempted - result.failed
    lat = result.latencies
    fresh = lat["fresh"]
    busy_s = sum(sum(values) for values in lat.values()) / 1e3
    cpu_ms = result.cpu * 1e3 * common.HostSpeed.scale(result.readings)
    return {
        "setup_s": common.metric(statistics.median(setup_durations), "s"),
        "requests_per_s": common.metric(completed / busy_s if busy_s else 0.0, "1/s"),
        "cpu_ms_per_request": common.metric(cpu_ms / max(1, completed), "ms"),
        "fresh_p50_ms": common.metric(common.percentile(fresh, 50), "ms"),
        "fresh_p90_ms": common.metric(common.percentile(fresh, 90), "ms"),
        "repeat_p50_ms": common.metric(common.percentile(lat["repeat"], 50), "ms"),
        "success_ratio": common.metric(completed / max(1, planned), "ratio"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
    }
