"""``serve-cold`` and ``serve-warm``: closed-loop clients against the service.

One client thread per CPU drives a :class:`repro.serve.testing.BackgroundServer`
through :class:`repro.serve.client.ServeClient`.  Each request submits a
run (``POST /v1/runs``), waits on its SSE stream until the job ends, and
fetches the result by hash; a client sends its next request only after
the previous one completes.

* ``serve-cold``: every request carries a fresh seed, so every run is
  simulated and written to the server's cache.  The spec stream repeats
  seed-shuffled rounds of a fixed palette of (benchmark, scheme) points,
  so concurrent requests sometimes share a point and can coalesce.
* ``serve-warm``: set-up fills the cache with a seed-chosen spec set; the
  loop resubmits those specs (every run is a cache hit) and follows each
  fetch with one ``POST /v1/controller/step``.
"""

from __future__ import annotations

import http.client
import math
import random
import re
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
from checks import Tally, plain, verify_payload
from spans import NULL_TRACER, Tracer
from summary import latency_summary, median

from repro.engine import EngineConfig, ResultCache, SweepEngine, SweepJob, run_job
from repro.engine.cache import job_cache_key
from repro.harness.persistence import result_to_dict
from repro.mcd.domains import MachineConfig
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.controller import score_trajectory
from repro.serve.testing import BackgroundServer

#: (benchmark, scheme) points, one benchmark per suite
PALETTE = (
    ("gsm-decode", "adaptive"),
    ("gsm-decode", "pid"),
    ("gzip", "adaptive"),
    ("gzip", "attack-decay"),
    ("swim", "adaptive"),
    ("swim", "pid"),
)
#: instructions per served run: short, so fixed per-request costs show
WINDOW = 1500
#: serve-warm's cached spec set: every palette point at this many seeds
WARM_SEEDS = 4
#: the loop runs past --seconds until p90 latency is reportable
MIN_LATENCY_SAMPLES = 100
#: served payloads compared with an in-process run, chosen among the
#: first VERIFY_WINDOW requests of the stream (always completed)
VERIFY_SAMPLES = 4
VERIFY_WINDOW = 40
#: controller-step trajectories (seed-generated), their length, and the
#: back-to-back calls of the traced pass's step probe
STEP_PAYLOADS = 8
STEP_SAMPLES = 64
STEP_PROBE_CALLS = 50
#: jobs re-executed layer by layer in the traced pass (serve-warm: its
#: whole cached set)
LAYER_JOBS = len(PALETTE) * WARM_SEEDS
#: what a failed request raises; each counts as one failed operation
_TRANSPORT_ERRORS = (ServeError, OSError, http.client.HTTPException, ValueError)


def job_for(spec: Dict[str, Any]) -> SweepJob:
    """The job the server builds from a run-submission body."""
    return SweepJob.make(
        spec["benchmark"],
        scheme=spec["scheme"],
        machine=MachineConfig(),
        max_instructions=spec["max_instructions"],
        seed=spec["seed"],
    )


def _spec(benchmark: str, scheme: str, seed: int) -> Dict[str, Any]:
    return {
        "benchmark": benchmark,
        "scheme": scheme,
        "seed": seed,
        "max_instructions": WINDOW,
    }


class SpecStream:
    """Thread-safe, seed-determined sequence of run submissions.

    Items are ``(index, spec)``; the stream repeats rounds of ``points``,
    each round in its own seed-shuffled order, so every point gets an
    equal share of any long enough prefix.  ``fresh_seeds`` gives each
    request its own trace seed (all cache misses); otherwise each point
    carries its own fixed seed (all cache hits after pre-fill).
    """

    def __init__(self, points: List[Tuple], seed: int, fresh_seeds: bool) -> None:
        self.points = points
        self.seed = seed
        self.fresh_seeds = fresh_seeds
        self._next = 0
        self._lock = threading.Lock()

    def spec_at(self, index: int) -> Dict[str, Any]:
        rounds, position = divmod(index, len(self.points))
        order = random.Random(self.seed * 7919 + rounds).sample(
            self.points, len(self.points)
        )
        benchmark, scheme, point_seed = order[position]
        seed = self.seed * 100_000 + index if self.fresh_seeds else point_seed
        return _spec(benchmark, scheme, seed)

    def next(self) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            index = self._next
            self._next += 1
        return index, self.spec_at(index)


def make_stream(kind: str, seed: int) -> SpecStream:
    if kind == "serve-cold":
        return SpecStream([p + (0,) for p in PALETTE], seed, fresh_seeds=True)
    points = [
        (benchmark, scheme, seed * 100_000 + k)
        for benchmark, scheme in PALETTE
        for k in range(WARM_SEEDS)
    ]
    return SpecStream(points, seed, fresh_seeds=False)


class StepCaller:
    """``POST /v1/controller/step`` with seed-generated trajectories.

    Each trajectory is a queue-occupancy random walk; every answer must
    equal :func:`repro.serve.controller.score_trajectory` of the same
    payload, computed in-process.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.payloads = []
        for index in range(STEP_PAYLOADS):
            level, walk = rng.randrange(0, 16), []
            for _ in range(STEP_SAMPLES):
                level = min(max(level + rng.choice((-2, -1, 0, 1, 2)), 0), 24)
                walk.append(level)
            domain = ("int", "fp", "ls")[index % 3]
            self.payloads.append({"occupancy": walk, "domain": domain})
        self.expected = [plain(score_trajectory(p)) for p in self.payloads]

    def call(self, client, count: int, tally: Tally):
        """One verified step call; its seconds, or ``None`` if it failed."""
        which = count % len(self.payloads)
        started = time.perf_counter()
        try:
            answer = client.controller_step(self.payloads[which])
        except _TRANSPORT_ERRORS as exc:
            tally.fail(f"controller step: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - started
        if tally.check(answer == self.expected[which], "controller step answer differs"):
            return elapsed
        return None

    def probe(self, client, tally: Tally) -> float:
        """Median microseconds of back-to-back calls on an idle server."""
        timings = [self.call(client, count, tally) for count in range(STEP_PROBE_CALLS)]
        return median([t for t in timings if t is not None]) * 1e6


def server_counters(client: ServeClient) -> Dict[str, float]:
    """Coalescer and engine-cache counters from /v1/stats and /metrics."""
    coalescer = client.stats()["coalescer"]
    outcomes = dict(
        re.findall(
            r'^repro_engine_jobs_total\{outcome="(\w+)"\} (\S+)$',
            client.metrics_text(),
            re.MULTILINE,
        )
    )
    return {
        "flushes": coalescer["flushes"],
        "run_batch_calls": coalescer["run_batch_calls"],
        "batched_runs": coalescer["batched_runs"],
        "cache_hit": float(outcomes.get("cache_hit", 0)),
        "finished": float(outcomes.get("finished", 0)),
    }


def serve_layer_metrics(tracer, span_run, delivery, before, after, step_us):
    """serve.*, coalescer.* and the served cache hit ratio of one traced loop."""
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["cache_hit"] + delta["finished"]
    calls = delta["run_batch_calls"]
    return {
        "serve.submit_ms": median(tracer.durations("serve.submit")) * 1e3,
        "serve.wait_ms": median(tracer.durations("serve.wait")) * 1e3,
        "serve.fetch_ms": median(tracer.durations("serve.fetch")) * 1e3,
        "serve.step_us": step_us,
        "serve.span_run_ms": median(span_run) * 1e3,
        "serve.delivery_ms": median(delivery) * 1e3,
        "coalescer.flushes": delta["flushes"],
        "coalescer.runs_per_batch": delta["batched_runs"] / calls if calls else 0.0,
        "cache.hit_ratio": delta["cache_hit"] / lookups if lookups else 0.0,
    }


class Service:
    """A running server with its cache directory and one client per thread."""

    def __init__(self, kind: str, seed: int, workers: int, workdir: str) -> None:
        self.kind = kind
        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.stream = make_stream(kind, seed)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.steps = StepCaller(seed) if kind == "serve-warm" else None
        #: serve-warm: the cache key each cached spec must be served under
        self.warm_shas = {
            point: job_cache_key(job_for(_spec(*point)))
            for point in self.stream.points
        } if kind == "serve-warm" else {}
        self.server: Optional[BackgroundServer] = None
        self.clients: List[ServeClient] = []

    def start(self, tally: Tally) -> "Service":
        if self.kind == "serve-warm":
            self._prefill(tally)
        self.server = BackgroundServer(ServeConfig(port=0, cache_dir=self.cache_dir))
        self.server.start()
        self.clients = [ServeClient(*self.server.address) for _ in range(self.workers)]
        for client in self.clients:
            client.health()
        return self

    def _prefill(self, tally: Tally) -> None:
        """Simulate serve-warm's spec set into the cache on a worker pool."""
        jobs = [job_for(self.stream.spec_at(i)) for i in range(len(self.stream.points))]
        engine = SweepEngine(EngineConfig(workers=self.workers, cache_dir=self.cache_dir))
        for outcome in engine.run(jobs):
            tally.check(outcome.ok, f"pre-fill {outcome.job.job_id}: {outcome.error}")

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None

    def remove(self) -> None:
        self.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ClientRecord:
    """What one client thread measured."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.instructions = 0
        self.steps: List[float] = []
        self.kept: Dict[int, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        self.span_run: List[float] = []
        self.delivery: List[float] = []


def _one_request(svc, client, tally, record, keep, tracer) -> None:
    index, spec = svc.stream.next()
    started = time.perf_counter()
    try:
        with tracer.span("request", trace=f"req{index}"):
            with tracer.span("serve.submit"):
                submitted = client.submit_run(spec)
            with tracer.span("serve.wait") as wait:
                final = client.wait_for_job(submitted["id"])
            with tracer.span("serve.fetch"):
                payload = client.get_result(submitted["result_sha"])
        latency = time.perf_counter() - started
        if tracer.enabled:
            root = [
                s for s in client.get_spans(submitted["id"])["spans"]
                if s["name"] == f"run:{submitted['id']}"
            ]
    except _TRANSPORT_ERRORS as exc:
        tally.fail(f"request {index}: {type(exc).__name__}: {exc}")
        return
    sha = submitted["result_sha"]
    valid = (
        final.get("state") == "done"
        and payload.get("sha") == sha
        and payload.get("benchmark") == spec["benchmark"]
        and payload.get("scheme") == spec["scheme"]
        and payload.get("instructions", 0) > 0
        and svc.warm_shas.get(
            (spec["benchmark"], spec["scheme"], spec["seed"]), sha
        ) == sha
    )
    if not tally.check(valid, f"request {index}: bad job state or payload"):
        return
    record.latencies.append(latency)
    record.instructions += payload["instructions"]
    if index in keep:
        record.kept[index] = (spec, payload)
    if tracer.enabled and root:
        run_s = root[0]["dur_ns"] / 1e9
        record.span_run.append(run_s)
        record.delivery.append(wait.duration - run_s)


def client_loop(svc, client, deadline, min_requests, tally, record, keep, tracer):
    count = 0
    while time.perf_counter() < deadline or len(record.latencies) < min_requests:
        _one_request(svc, client, tally, record, keep, tracer)
        if svc.steps is not None:
            elapsed = svc.steps.call(client, count, tally)
            if elapsed is not None:
                record.steps.append(elapsed)
        count += 1


def drive(svc: Service, seconds: float, tally: Tally, tracer=NULL_TRACER):
    """Run every client's closed loop for ``seconds``; merged records."""
    keep = set(random.Random(svc.seed + 1).sample(range(VERIFY_WINDOW), VERIFY_SAMPLES))
    records = [ClientRecord() for _ in svc.clients]
    min_requests = math.ceil(MIN_LATENCY_SAMPLES / len(svc.clients))
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=client_loop,
            args=(svc, client, deadline, min_requests, tally, record, keep, tracer),
            name=f"perfbench-client-{n}",
        )
        for n, (client, record) in enumerate(zip(svc.clients, records))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def verify_sample(records: List[ClientRecord], tally: Tally) -> None:
    """Served payloads of the sample against the same jobs run in-process."""
    for record in records:
        for index, (spec, fetched) in sorted(record.kept.items()):
            expected = result_to_dict(run_job(job_for(spec)), include_history=False)
            expected["sha"] = fetched.get("sha")
            verify_payload(tally, fetched, expected, f"request {index}")


def _merged(records: List[ClientRecord], field: str) -> List[float]:
    return [value for record in records for value in getattr(record, field)]


def measure(svc: Service, seconds: float, tally: Tally):
    """The timed closed loop; end-to-end metrics plus a report."""
    records, wall = drive(svc, seconds, tally)
    svc.stop()
    verify_sample(records, tally)
    latencies = _merged(records, "latencies")
    metrics = {
        "runs_per_s": len(latencies) / wall,
        "instr_per_s": sum(r.instructions for r in records) / wall,
        **latency_summary(latencies, "latency_{}_ms", 1e3),
    }
    report: Dict[str, Any] = {"latency_samples": len(latencies)}
    steps = _merged(records, "steps")
    if steps:
        report.update(latency_summary(steps, "step_latency_{}_us", 1e6, qs=(50, 99)))
        report["step_samples"] = len(steps)
    return metrics, report


def traced(svc: Service, seconds: float, tally: Tally) -> Dict[str, float]:
    """Per-layer metrics: a traced client loop, then the job list's layers."""
    tracer = Tracer()
    before = server_counters(svc.clients[0])
    records, _ = drive(svc, seconds, tally, tracer)
    after = server_counters(svc.clients[0])
    step_us = StepCaller(svc.seed).probe(svc.clients[0], tally)
    svc.stop()
    verify_sample(records, tally)
    metrics = serve_layer_metrics(
        tracer, _merged(records, "span_run"), _merged(records, "delivery"),
        before, after, step_us,
    )
    jobs = [job_for(svc.stream.spec_at(i)) for i in range(LAYER_JOBS)]
    layer_metrics, _ = layers.traced_job_list(
        jobs, svc.workers, svc.workdir, svc.seed + 2, tally
    )
    metrics.update(layer_metrics)
    return metrics


def traced_sweep(jobs: List[SweepJob], seed: int, workers: int, tally: Tally):
    """The serve layer for a sweep: the job list as one ``POST /v1/sweeps``.

    The jobs must form a benchmark x scheme grid at one seed and window,
    in the order the server expands a sweep.  Returns the serve-layer
    metrics and the fetched result payloads, in job order.
    """
    spec = {
        "benchmarks": list(dict.fromkeys(job.benchmark.name for job in jobs)),
        "schemes": list(dict.fromkeys(job.scheme for job in jobs)),
        "seeds": [jobs[0].seed],
        "max_instructions": jobs[0].max_instructions,
    }
    tracer = Tracer()
    payloads: List[Dict[str, Any]] = []
    with BackgroundServer(ServeConfig(port=0, workers=workers)) as server:
        with ServeClient(*server.address) as client:
            before = server_counters(client)
            with tracer.span("sweep"):
                with tracer.span("serve.submit"):
                    submitted = client.submit_sweep(spec)
                with tracer.span("serve.wait") as wait:
                    final = client.wait_for_job(submitted["id"])
                for sha in submitted["result_shas"]:
                    with tracer.span("serve.fetch"):
                        payloads.append(client.get_result(sha))
            after = server_counters(client)
            root = [
                s["dur_ns"] / 1e9
                for s in client.get_spans(submitted["id"])["spans"]
                if s["name"] == f"sweep:{submitted['id']}"
            ]
            step_us = StepCaller(seed).probe(client, tally)
    tally.check(final.get("state") == "done", f"served sweep ended {final}")
    tally.check(
        submitted["result_shas"] == [job_cache_key(job) for job in jobs],
        "the served sweep's jobs differ from the job list",
    )
    metrics = serve_layer_metrics(
        tracer, root, [wait.duration - run_s for run_s in root], before, after, step_us
    )
    return metrics, payloads
