"""Executors: how a batch of campaign shards actually runs.

Two backends behind one interface:

* :class:`SerialExecutor` — runs shards one after another in-process,
  reusing the caller's already-built world.  The default, and what every
  pre-engine code path reduces to.
* :class:`ParallelExecutor` — fans shards out to a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Workers receive only
  the pickled shard; each rebuilds the world from the shard's config once
  and caches it for subsequent shards (see
  :data:`repro.engine.shard._WORLD_CACHE`).  The pool pickles each
  shard's result objects back to this process.

Both return :class:`~repro.engine.shard.ShardResult` lists in shard
order, and — because per-vantage RNG streams are isolated — both produce
bit-identical measurement repositories for the same scenario config.
"""

from __future__ import annotations

import concurrent.futures

from ..config import ExecutionConfig
from ..errors import EngineError
from ..obs import get_logger, metrics
from .shard import ShardResult, VantageShard, execute_shard

_LOG = get_logger("engine.executor")

#: engine counters (module-cached: ``obs`` resets metrics in place).
_SHARDS_DISPATCHED = metrics.counter("engine.shards_dispatched")
_SHARD_SECONDS = metrics.histogram("engine.shard_seconds")
_JOBS_GAUGE = metrics.gauge("engine.jobs")
_SHARD_RETRIES = metrics.counter("engine.shard_retries")
_SHARDS_DEGRADED = metrics.counter("engine.shards_degraded")


class Executor:
    """Runs a batch of shards; subclasses choose where the work happens."""

    name = "base"

    def run(
        self, shards: list[VantageShard], world=None
    ) -> list[ShardResult]:
        raise NotImplementedError

    def _record(self, results: list[ShardResult]) -> list[ShardResult]:
        _SHARDS_DISPATCHED.inc(len(results))
        for result in results:
            _SHARD_SECONDS.observe(result.wall_seconds)
        return results


class SerialExecutor(Executor):
    """In-process, one shard after another (the default backend)."""

    name = "serial"

    def run(
        self, shards: list[VantageShard], world=None
    ) -> list[ShardResult]:
        _JOBS_GAUGE.set(1)
        return self._record(
            [execute_shard(shard, world=world) for shard in shards]
        )


class ParallelExecutor(Executor):
    """Process-pool backed fan-out over ``jobs`` worker processes.

    A worker that raises — or dies outright, taking the pool with it
    (``BrokenProcessPool``) — does not abort the campaign: the failed
    shard is resubmitted up to ``shard_retries`` times to a fresh pool,
    and whatever still fails is re-run serially in this process (graceful
    degradation; determinism makes the result identical to the worker's).
    """

    name = "process"

    def __init__(self, jobs: int = 2, shard_retries: int = 1) -> None:
        if jobs < 1:
            raise EngineError("ParallelExecutor needs jobs >= 1")
        if shard_retries < 0:
            raise EngineError("ParallelExecutor needs shard_retries >= 0")
        self.jobs = jobs
        self.shard_retries = shard_retries

    def run(
        self, shards: list[VantageShard], world=None
    ) -> list[ShardResult]:
        if not shards:
            return []
        workers = min(self.jobs, len(shards))
        if workers == 1:
            # One worker means no parallelism to buy; skip the pool (and
            # its world rebuild) and run in-process on the given world.
            _LOG.info("single job requested; running shards in-process")
            return SerialExecutor().run(shards, world=world)
        _JOBS_GAUGE.set(workers)
        _LOG.info(
            "dispatching shards to process pool",
            extra={"shards": len(shards), "jobs": workers},
        )
        results: dict[int, ShardResult] = {}
        pending = list(enumerate(shards))
        for round_no in range(self.shard_retries + 1):
            if not pending:
                break
            if round_no:
                _SHARD_RETRIES.inc(len(pending))
                _LOG.warning(
                    "retrying failed shards in a fresh pool",
                    extra={
                        "attempt": round_no,
                        "shards": [s.vantage_name for _, s in pending],
                    },
                )
            pending = self._pool_round(pending, workers, results)
        for idx, shard in pending:
            # Out of pool retries: degrade gracefully to in-process
            # execution rather than aborting the whole campaign.
            _SHARDS_DEGRADED.inc()
            _LOG.warning(
                "worker kept failing; running shard in-process",
                extra={"vantage": shard.vantage_name},
            )
            results[idx] = execute_shard(shard, world=world)
        return self._record([results[i] for i in range(len(shards))])

    def _pool_round(
        self,
        pending: list[tuple[int, VantageShard]],
        workers: int,
        results: dict[int, ShardResult],
    ) -> list[tuple[int, VantageShard]]:
        """One pool pass over ``pending``; returns the shards that failed."""
        failed: list[tuple[int, VantageShard]] = []
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futures = {
                pool.submit(execute_shard, shard): (idx, shard)
                for idx, shard in pending
            }
            for future in concurrent.futures.as_completed(futures):
                idx, shard = futures[future]
                try:
                    results[idx] = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    # The dead worker takes every in-flight future down;
                    # collect all still-unfinished shards and stop waiting.
                    _LOG.warning(
                        "process pool broke mid-campaign",
                        extra={"vantage": shard.vantage_name},
                    )
                    failed = [
                        (i, s)
                        for f, (i, s) in futures.items()
                        if i not in results and (i, s) not in failed
                    ]
                    break
                except Exception as exc:
                    _LOG.warning(
                        "shard failed in worker",
                        extra={
                            "vantage": shard.vantage_name,
                            "error": repr(exc),
                        },
                    )
                    failed.append((idx, shard))
        failed.sort()
        return failed


def make_executor(execution: ExecutionConfig | None = None) -> Executor:
    """Build the executor an :class:`ExecutionConfig` asks for.

    ``None`` falls back to :meth:`ExecutionConfig.from_env`, so
    ``REPRO_BACKEND=process REPRO_JOBS=4`` parallelises every campaign in
    the process — including the test suite — without code changes.
    """
    if execution is None:
        execution = ExecutionConfig.from_env()
    execution.validate()
    if execution.backend == "process":
        return ParallelExecutor(
            jobs=execution.jobs, shard_retries=execution.shard_retries
        )
    return SerialExecutor()
