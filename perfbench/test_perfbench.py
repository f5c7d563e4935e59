"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import serveload  # noqa: E402
from run import WORKLOADS  # noqa: E402
from checks import Tally, verify_payload  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402
from summary import latency_summary, min_samples, percentile, spread  # noqa: E402

from repro.engine import run_job  # noqa: E402
from repro.harness.persistence import result_to_dict  # noqa: E402


# -- the percentile rule ---------------------------------------------------


def test_min_samples_leave_ten_beyond_the_percentile():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000


def test_percentile_is_omitted_below_the_sample_threshold():
    assert percentile([1.0] * 99, 90) is None
    assert percentile([1.0] * 999, 99) is None
    assert percentile([1.0] * 19, 50) is None


def test_percentile_is_a_measured_sample_by_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]  # unsorted on purpose
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0
    assert percentile([float(v) for v in range(1, 1001)], 99) == 990.0


def test_latency_summary_reports_only_reportable_percentiles():
    summary = latency_summary([0.001] * 150, "latency_{}_ms", 1e3)
    assert summary == {"latency_p50_ms": 1.0, "latency_p90_ms": 1.0}
    assert latency_summary([0.001] * 10, "latency_{}_ms", 1e3) == {}


# -- the quartile spread ---------------------------------------------------


def test_spread_is_interquartile_distance_over_median():
    # statistics.quantiles(1..10, n=4) gives 2.75, 5.5, 8.25
    assert spread([float(v) for v in range(1, 11)]) == pytest.approx(1.0)
    assert spread([4.0, 4.0, 4.0, 4.0]) == 0.0


def test_spread_rejects_what_it_cannot_judge():
    with pytest.raises(ValueError):
        spread([1.0])
    with pytest.raises(ValueError):
        spread([-1.0, 0.0, 1.0])


# -- verification counts every mismatch --------------------------------------


@pytest.fixture(scope="module")
def served():
    """A real served-shape payload and the spec that produced it."""
    spec = serveload.make_stream("serve-cold", 3).spec_at(0)
    payload = result_to_dict(run_job(serveload.job_for(spec)), include_history=False)
    payload["sha"] = "0" * 64
    return spec, json.loads(json.dumps(payload))


def test_identical_payload_passes(served):
    spec, payload = served
    tally = Tally()
    assert verify_payload(tally, payload, copy.deepcopy(payload), "ok")
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_served_payload_counts_as_failed(served):
    spec, payload = served
    corrupted = copy.deepcopy(payload)
    corrupted["energy"]["total"] *= 1.0 + 1e-12
    record = serveload.ClientRecord()
    record.kept[0] = (spec, corrupted)
    tally = Tally()
    serveload.verify_sample([record], tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.fail_frac == 1.0
    assert "energy" in tally.reasons[0]


# -- inputs from the seed ---------------------------------------------------


def test_spec_stream_is_seed_determined_and_balanced():
    stream = serveload.make_stream("serve-cold", 7)
    first = [stream.spec_at(i) for i in range(60)]
    again = serveload.make_stream("serve-cold", 7)
    assert [again.spec_at(i) for i in range(60)] == first
    points = Counter((s["benchmark"], s["scheme"]) for s in first)
    assert set(points.values()) == {60 // len(serveload.PALETTE)}
    assert len({s["seed"] for s in first}) == 60  # fresh seed per request


def test_warm_stream_only_resubmits_the_cached_set():
    stream = serveload.make_stream("serve-warm", 7)
    cached = {tuple(p) for p in stream.points}
    for index in range(3 * len(stream.points)):
        spec = stream.spec_at(index)
        assert (spec["benchmark"], spec["scheme"], spec["seed"]) in cached


# -- spans -------------------------------------------------------------------


def test_layer_spans_cover_their_root_and_null_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("job", trace="job0"):
        with tracer.span("a") as span:
            span.attrs["n"] = 3
        with tracer.span("b"):
            pass
    root, a, b = tracer.spans
    assert a.parent == 0 and a.trace == "job0"
    assert tracer.covered() == pytest.approx(a.duration + b.duration)
    assert tracer.attr_values("a", "n") == [3]
    with NULL_TRACER.span("job") as span:
        span.attrs["n"] = 1


# -- BENCHMARK.json keeps to its contract ------------------------------------


def test_benchmark_declaration_shape():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
