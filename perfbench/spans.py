"""Spans recorded around the program's layers, and self-time arithmetic.

The traced run wraps the public function of each layer from the
benchmark's own code (the program itself is not edited).  Every wrapper
records one span: name, start, end and the index of the span that was
open when it started.  A layer's self time is the time its spans cover
minus the part of that time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (span name, call key, module, attribute path) for every wrapped layer
#: entry point.  A call key counts the calls of one wrapped function.
LAYERS = (
    ("core.world.build", "build_world", "repro.core.world", "build_world"),
    ("core.campaign.run", "run_campaign", "repro.core.campaign", "run_campaign"),
    ("core.campaign.run", "run_w6d", "repro.core.campaign", "run_world_ipv6_day"),
    ("engine.merge", "merge", "repro.core.campaign", "merge_shard_results"),
    ("batch.plan.build", "plan", "repro.batch.plan", "build_round_plan"),
    ("batch.execute.round", "round", "repro.batch.execute", "run_batched_round"),
    ("batch.execute.round", "faulted_round", "repro.batch.execute",
     "_execute_faulted"),
    ("monitor.export.write", "export", "repro.monitor.export",
     "export_repository"),
    ("engine.store.save", "store_save", "repro.engine.store",
     "CampaignStore.save"),
    ("engine.store.save", "store_save_observers", "repro.engine.store",
     "CampaignStore.save_observer_reports"),
    ("engine.store.load", "store_load", "repro.engine.store",
     "CampaignStore.load"),
    ("engine.store.load", "store_load_repository", "repro.engine.store",
     "CampaignStore.load_repository_by_digest"),
    ("engine.store.load", "store_load_columnar", "repro.engine.store",
     "CampaignStore.load_columnar_entry"),
    ("data.columnar.encode", "columnar_view", "repro.data.columnar",
     "columnar_view"),
    ("data.columnar.encode", "encode_bin", "repro.data.columnar",
     "encode_columnar_binary"),
    ("data.columnar.encode", "encode_json", "repro.data.columnar",
     "write_columnar_json"),
    ("data.columnar.decode", "decode_bin", "repro.data.columnar",
     "decode_columnar_binary"),
    ("data.columnar.decode", "decode_json", "repro.data.columnar",
     "ColumnarRepository.from_payload"),
    ("data.query.run", "run_query", "repro.data.query", "run_query"),
    ("data.query.run", "scan", "repro.data.query", "scan"),
    ("analysis.screen", "screen_all", "repro.analysis.confidence", "screen_all"),
    ("analysis.classify", "classify_sites", "repro.analysis.classify",
     "classify_sites"),
    ("analysis.classify", "group_by_destination", "repro.analysis.classify",
     "group_by_destination"),
    ("analysis.evaluate", "evaluate_groups", "repro.analysis.hypotheses",
     "evaluate_groups"),
    ("stats.linear_regression", "linear_regression", "repro.stats.regression",
     "linear_regression"),
    ("experiments.render", "render", "repro.experiments.report",
     "Table.render"),
    ("observers.run", "run_observer", "repro.observers.runner", "run_observer"),
)

#: the per-table decode closures ``_binary_table_loader`` hands out.
TABLE_LOADER = ("repro.data.columnar", "_binary_table_loader")


class Recorder:
    """Spans and call counts of one single-threaded traced process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def wrap(self, name: str, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] = self.calls.get(key, 0) + 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every entry in :data:`LAYERS` at each binding callers use.

    A function is replaced in its defining module and in every loaded
    ``repro`` module that imported it by name, so a caller that looks
    it up as ``scenario.screen_all`` sees the wrapper too; a method is
    replaced on its class.  The experiment table registry in
    ``run_all.EXPERIMENTS`` holds its runners in a tuple, so those are
    wrapped there.
    """
    for name, key, module_name, attr in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, key, original.__func__))
            else:
                wrapped = recorder.wrap(name, key, original)
            setattr(owner, method, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, key, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapped)
    _wrap_table_loader(recorder)
    _wrap_experiments(recorder)


def _wrap_table_loader(recorder: Recorder) -> None:
    module = importlib.import_module(TABLE_LOADER[0])
    make_loader = getattr(module, TABLE_LOADER[1])

    def traced_loader(*args, **kwargs):
        return recorder.wrap(
            "data.columnar.decode", "decode_table", make_loader(*args, **kwargs)
        )

    setattr(module, TABLE_LOADER[1], traced_loader)


def _wrap_experiments(recorder: Recorder) -> None:
    run_all = importlib.import_module("repro.experiments.run_all")
    run_all.EXPERIMENTS = tuple(
        (label, recorder.wrap("experiments.render", "experiment", runner), w6d)
        for label, runner, w6d in run_all.EXPERIMENTS
    )


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        elif hi > end:
            end = hi
    if end is not None:
        total += end - start
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the union of its direct
    children's intervals clipped to it; so each instant is charged to
    the innermost span open at that instant.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        inner = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(index, ())
            if hi > start and lo < end
        ]
        own = (end - start) - _covered(inner)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def entries(spans: list[list], name: str) -> int:
    """Spans named ``name`` whose parent is not also named ``name``:
    the number of times the layer was entered from outside it."""
    return sum(
        1
        for span_name, _, _, parent in spans
        if span_name == name and (parent < 0 or spans[parent][0] != name)
    )


def coverage(spans: list[list], start: float, end: float) -> float:
    """Share of ``[start, end]`` inside top-level spans."""
    if end <= start:
        raise ValueError("empty window")
    top = [
        (max(s, start), min(e, end))
        for _, s, e, parent in spans
        if parent < 0 and e > start and s < end
    ]
    return _covered(top) / (end - start)
