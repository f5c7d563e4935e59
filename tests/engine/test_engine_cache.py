"""Tests for the content-addressed result cache."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.engine.cache import (
    CACHE_VERSION,
    ResultCache,
    entry_path,
    get_by_key,
    job_cache_key,
)
from repro.engine.jobs import SweepJob, run_job
from repro.mcd.domains import DomainId, MachineConfig
from repro.obs.facade import ObsConfig
from repro.obs.spans import SpanContext
from repro.simcore import CORES, resolve_core
from repro.workloads.suite import get_benchmark


@pytest.fixture(scope="module")
def job():
    return SweepJob.make("adpcm-encode", scheme="adaptive", max_instructions=1500)


@pytest.fixture(scope="module")
def result(job):
    return run_job(job)


#: One changed value per keyed ``SweepJob`` field: each must move the key.
PERTURB = {
    "scheme": "pid",
    "machine": MachineConfig(rob_size=96),
    "max_instructions": 2000,
    "seed": 99,
    "record_history": True,
    "history_stride": 8,
    "pid_interval_ns": 100.0,
    "adaptive_overrides": {"delay_scale": 2.0},
    "obs": ObsConfig(),
    "simcore": next(core for core in CORES if core != resolve_core(None)),
}

#: Prints the keys of a job grid as JSON; run under two hash seeds.
_KEY_GRID_SCRIPT = """
import json
from repro.engine.cache import job_cache_key
from repro.engine.jobs import SweepJob
from repro.harness.experiment import SCHEMES
from repro.mcd.domains import MachineConfig
from repro.obs.facade import ObsConfig
from repro.workloads.suite import BENCHMARKS

jobs = [SweepJob.make(name, scheme) for name in BENCHMARKS for scheme in SCHEMES]
jobs += [
    SweepJob.make("gzip", obs=ObsConfig(sample_stride=4)),
    SweepJob.make(
        "gzip", adaptive_overrides={"t_m0": 500.0, "t_l0": 80.0, "dw_level": 1.5}
    ),
    SweepJob.make("gzip", machine=MachineConfig(rob_size=96, dvfs_style="transmeta")),
]
print(json.dumps([job_cache_key(job) for job in jobs]))
"""


def _grid_keys(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _KEY_GRID_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


class TestCacheKey:
    def test_stable_across_instances(self, job):
        clone = SweepJob.make(
            "adpcm-encode", scheme="adaptive", max_instructions=1500
        )
        assert job_cache_key(job) == job_cache_key(clone)

    def test_is_hex_digest(self, job):
        key = job_cache_key(job)
        assert len(key) == 64
        int(key, 16)

    def test_every_field_is_keyed_or_exempt(self):
        """A new SweepJob field must join PERTURB (and the key) or be
        exempted here with a reason."""
        fields = {f.name for f in dataclasses.fields(SweepJob)}
        # benchmark: see test_different_benchmark_changes_key
        # span: random per submission, see test_span_leaves_key_unchanged
        assert fields == set(PERTURB) | {"benchmark", "span"}

    @pytest.mark.parametrize(
        "other", [{field: value} for field, value in PERTURB.items()]
    )
    def test_any_simulation_input_changes_key(self, job, other):
        changed = dataclasses.replace(job, **other)
        assert changed != job
        assert job_cache_key(job) != job_cache_key(changed), other

    def test_different_benchmark_changes_key(self, job):
        other = dataclasses.replace(job, benchmark=get_benchmark("gzip"))
        assert job_cache_key(job) != job_cache_key(other)

    def test_span_leaves_key_unchanged(self, job):
        """Span ids are random per submission; keying on them would turn
        every lookup into a miss."""
        spanned = dataclasses.replace(
            job, span=SpanContext(trace_id="t" * 32, span_id="s" * 16)
        )
        assert job_cache_key(spanned) == job_cache_key(job)

    def test_keys_do_not_depend_on_the_hash_seed(self):
        """Set or dict-iteration order leaking into the key shows up as a
        different key under another PYTHONHASHSEED."""
        keys = _grid_keys(1)
        assert len(set(keys)) == len(keys)
        assert _grid_keys(2) == keys


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        assert cache.get(job) is None
        path = cache.put(job, result)
        assert path is not None and os.path.exists(path)
        loaded = cache.get(job)
        assert loaded is not None
        assert loaded.benchmark == result.benchmark
        assert loaded.scheme == result.scheme
        assert loaded.time_ns == pytest.approx(result.time_ns)
        assert loaded.energy.total == pytest.approx(result.energy.total)
        assert loaded.energy.chip_total == pytest.approx(result.energy.chip_total)
        assert loaded.transitions == result.transitions
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_entries_are_sharded_gzip_files(self, tmp_path, job):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for(job)
        key = job_cache_key(job)
        assert path.endswith(".json.gz")
        assert os.path.basename(os.path.dirname(path)) == key[:2]

    def test_corrupt_entry_reads_as_miss(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        with open(cache.path_for(job), "wb") as handle:
            handle.write(b"not gzip at all")
        assert cache.get(job) is None

    def test_history_preserved_when_job_records_it(self, tmp_path):
        job = SweepJob.make(
            "adpcm-encode", scheme="adaptive",
            max_instructions=1500, record_history=True,
        )
        result = run_job(job)
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        loaded = cache.get(job)
        assert loaded.history.time_ns == result.history.time_ns
        assert (
            loaded.history.frequency_ghz[DomainId.INT]
            == result.history.frequency_ghz[DomainId.INT]
        )

    def test_cache_version_participates_in_key(self, job, monkeypatch):
        before = job_cache_key(job)
        monkeypatch.setattr("repro.engine.cache.CACHE_VERSION", CACHE_VERSION + 1)
        assert job_cache_key(job) != before


class TestGetByKey:
    """Fetching cached results by bare content hash (the serve path)."""

    def test_roundtrip_by_hash(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        key = job_cache_key(job)

        loaded = get_by_key(key, str(tmp_path))
        assert loaded is not None
        assert loaded.benchmark == result.benchmark
        assert loaded.scheme == result.scheme
        assert loaded.time_ns == pytest.approx(result.time_ns)
        assert loaded.energy.total == pytest.approx(result.energy.total)

    def test_missing_key_is_none(self, tmp_path):
        assert get_by_key("a" * 64, str(tmp_path)) is None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "short",
            "A" * 64,  # uppercase: not a canonical digest
            "g" * 64,  # non-hex
            "../" + "a" * 61,  # traversal attempt
            "a" * 63 + "/",
        ],
    )
    def test_malformed_keys_rejected_without_touching_disk(self, tmp_path, bad):
        assert get_by_key(bad, str(tmp_path)) is None

    def test_corrupt_entry_is_none(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        key = job_cache_key(job)
        with open(entry_path(str(tmp_path), key), "wb") as handle:
            handle.write(b"garbage")
        assert get_by_key(key, str(tmp_path)) is None

    def test_bound_method_counts_hit_and_miss(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        key = job_cache_key(job)
        assert cache.get_by_key(key) is not None
        assert cache.get_by_key("b" * 64) is None
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
