"""Execution-engine integration: backend equivalence and the disk cache.

The engine's hard invariant is that the serial and process backends
produce bit-identical measurement repositories for the same scenario
config; these tests pin it with
:meth:`~repro.monitor.aggregate.CentralRepository.content_digest`.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig, small_config
from repro.core.campaign import (
    build_campaign_shards,
    merge_shard_results,
    run_campaign,
    run_world_ipv6_day,
)
from repro.core.world import build_world
from repro.engine import SerialExecutor
from repro.engine.store import config_digest
from repro.experiments import scenario
from repro.experiments.scenario import build_contexts
from repro.obs import metrics

#: tiny but non-degenerate scenario for cross-backend runs.
TINY = small_config(seed=7, scale=0.5)
TINY_ROUNDS = 4


@pytest.fixture(scope="module")
def tiny_serial():
    world = build_world(TINY)
    weekly = run_campaign(
        world, n_rounds=TINY_ROUNDS, execution=ExecutionConfig(backend="serial")
    )
    w6d = run_world_ipv6_day(
        world, n_rounds=6, execution=ExecutionConfig(backend="serial")
    )
    return weekly, w6d


@pytest.fixture(scope="module")
def tiny_process():
    world = build_world(TINY)
    weekly = run_campaign(
        world,
        n_rounds=TINY_ROUNDS,
        execution=ExecutionConfig(backend="process", jobs=2),
    )
    w6d = run_world_ipv6_day(
        world, n_rounds=6, execution=ExecutionConfig(backend="process", jobs=2)
    )
    return weekly, w6d


class TestBackendEquivalence:
    def test_weekly_repositories_bit_identical(self, tiny_serial, tiny_process):
        serial, _ = tiny_serial
        process, _ = tiny_process
        assert (
            serial.repository.content_digest()
            == process.repository.content_digest()
        )

    def test_weekly_reports_identical(self, tiny_serial, tiny_process):
        assert tiny_serial[0].reports == tiny_process[0].reports

    def test_w6d_repositories_bit_identical(self, tiny_serial, tiny_process):
        _, serial = tiny_serial
        _, process = tiny_process
        assert (
            serial.repository.content_digest()
            == process.repository.content_digest()
        )

    def test_engine_counters_recorded(self, tiny_serial):
        assert metrics.counter("engine.shards_dispatched").value > 0
        assert metrics.histogram("engine.shard_seconds").count > 0


class TestLiveHandBack:
    """Shards hand back live objects; the merge registers them as is."""

    def test_merge_registers_the_shards_own_objects(self):
        world = build_world(TINY)
        shards = build_campaign_shards(world, 2, 0)
        results = SerialExecutor().run(shards, world=world)
        merged = merge_shard_results(world, results)
        for result in results:
            name = result.vantage_name
            assert merged.repository.database(name) is result.database
            assert merged.repository.vantage(name) is result.vantage
            assert merged.reports[name] is result.reports


class TestScenarioDiskCache:
    def test_second_build_hits_the_disk_tier(self, tmp_path, monkeypatch):
        saved_store = scenario._store()
        scenario.configure_cache(tmp_path)
        try:
            scenario.clear_caches()
            misses_before = metrics.counter("scenario.cache_misses").value
            first = scenario.get_experiment_data(TINY)
            assert (
                metrics.counter("scenario.cache_misses").value
                == misses_before + 1
            )
            entry = tmp_path / "campaigns" / config_digest(TINY, "weekly")
            assert sorted(p.name for p in entry.iterdir()) == [
                "columnar.bin", "meta.json", "reports.json"
            ]

            # count world builds, and encodes while analysis runs
            builds = []
            encodes = []

            def counting_build_world(config):
                builds.append(config)
                return build_world(config)

            def watched_build_contexts(config, campaign):
                before = metrics.counter("data.columnar.encodes").value
                contexts = build_contexts(config, campaign)
                encodes.append(
                    metrics.counter("data.columnar.encodes").value - before
                )
                return contexts

            monkeypatch.setattr(scenario, "build_world", counting_build_world)
            monkeypatch.setattr(
                scenario, "build_contexts", watched_build_contexts
            )

            # drop the memory tier; the disk tier must carry the reload
            scenario.clear_caches()
            hits_before = metrics.counter("scenario.cache_hits").value
            store_hits_before = metrics.counter("engine.store.hits").value
            second = scenario.get_experiment_data(TINY)
            assert metrics.counter("scenario.cache_hits").value == hits_before + 1
            assert (
                metrics.counter("engine.store.hits").value
                == store_hits_before + 1
            )
            assert (
                second.repository.content_digest()
                == first.repository.content_digest()
            )
            # the world is rebuilt from config, exactly once
            assert builds == [TINY]
            assert second.world is not None
            # analysis queried the decoded columns without re-encoding
            assert encodes == [0]
            # analysis layers rebuilt from restored data match
            assert set(second.contexts) == set(first.contexts)
        finally:
            scenario.clear_caches()
            if saved_store is not None:
                scenario.configure_cache(saved_store.root)
            else:
                scenario.configure_cache(None)

    def test_disabled_cache_writes_nothing(self, tmp_path):
        saved_store = scenario._store()
        scenario.configure_cache(None)
        try:
            scenario.clear_caches()
            scenario.get_experiment_data(TINY)
            assert not (tmp_path / "campaigns").exists()
        finally:
            scenario.clear_caches()
            if saved_store is not None:
                scenario.configure_cache(saved_store.root)
            else:
                scenario.configure_cache(None)
