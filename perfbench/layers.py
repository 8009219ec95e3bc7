"""Per-layer figures from a traced run.

Timings are span self times (see ``spans.self_times``).  Counts come
from wrapper call counts and from the program's own ``repro.obs``
counters, which the traced launcher dumps when the command ends (or,
for the server, from ``/metrics``).  A figure whose layer did not run
on a workload reads 0.
"""

from __future__ import annotations

import json
import pathlib

import common
import spans

#: per-layer timing metric -> span name.
SELF_TIME = {
    "import.cli_s": "import.cli",
    "core.world.build_s": "core.world.build",
    "core.campaign.run_s": "core.campaign.run",
    "engine.merge_s": "engine.merge",
    "batch.plan.build_s": "batch.plan.build",
    "batch.execute.round_s": "batch.execute.round",
    "monitor.export.write_s": "monitor.export.write",
    "engine.store.save_s": "engine.store.save",
    "engine.store.load_s": "engine.store.load",
    "data.columnar.encode_s": "data.columnar.encode",
    "data.columnar.decode_s": "data.columnar.decode",
    "data.query.run_s": "data.query.run",
    "analysis.screen_s": "analysis.screen",
    "analysis.classify_s": "analysis.classify",
    "analysis.evaluate_s": "analysis.evaluate",
    "stats.linear_regression_s": "stats.linear_regression",
    "experiments.render_s": "experiments.render",
    "observers.run_s": "observers.run",
}


def empty() -> dict[str, float]:
    return {metric.name: 0.0 for metric in common.PER_LAYER}


def at_speed(values: dict[str, float], scale: float) -> dict[str, float]:
    """The timings among ``values`` stated at reference speed."""
    timed = {m.name for m in common.PER_LAYER if m.unit in ("s", "ms")}
    return {name: value * scale if name in timed else value
            for name, value in values.items()}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def from_counters(counters: dict) -> dict[str, float]:
    """Figures derived from a ``repro.obs`` registry snapshot.

    ``faults.injected`` counts every recorded fault except the
    ``exhausted``/``dns_exhausted`` records, which mark a spent retry
    budget rather than an injection; every injected fault is retried
    unless it spent the budget, so ``monitor.retries`` is their
    difference.
    """

    def value(name: str) -> float:
        entry = counters.get(name) or {}
        return float(entry.get("value", 0.0))

    converged = value("download.loops_converged")
    loops = (converged + value("download.loops_exhausted")
             + value("download.loops_gave_up"))
    dns_hits = value("dns.cache_hits")
    dns_queries = dns_hits + value("dns.cache_misses")
    exhausted = value("monitor.retries_exhausted")
    injected = value("monitor.faults_observed") - exhausted
    return {
        "bgp.route_computations": value("bgp.route_computations"),
        "monitor.download.loops": loops,
        "monitor.download.samples": value("download.samples"),
        "monitor.download.converged_share": _share(converged, loops),
        "monitor.retries": injected - exhausted,
        "dns.queries": dns_queries,
        "dns.cache_hit_share": _share(dns_hits, dns_queries),
        "dns.zone_walks": value("dns.zone_walks"),
        "dns.dns64.synthesized": value("dns.dns64.synthesized"),
        "faults.injected": injected,
        "data.query.rows_scanned": value("data.query.rows_scanned"),
        "data.query.index_hit_share": _share(
            value("data.query.index_hits"), value("data.query.scans")
        ),
        "observers.reports": value("observers.reports"),
        "data.serve.campaign_loads": value("data.serve.campaign_loads"),
    }


def from_trace(path: pathlib.Path) -> dict[str, float]:
    trace = json.loads(path.read_text(encoding="utf-8"))
    recorded = trace["spans"]
    calls = trace["calls"]
    own = spans.self_times(recorded)
    values = empty()
    for metric, span_name in SELF_TIME.items():
        values[metric] = own.get(span_name, 0.0)
    values.update(from_counters(trace["metrics"]))
    values["batch.plan.calls"] = float(calls.get("plan", 0))
    values["batch.execute.rounds"] = float(calls.get("round", 0))
    values["batch.execute.faulted_rounds"] = float(calls.get("faulted_round", 0))
    values["data.query.calls"] = float(spans.entries(recorded, "data.query.run"))
    values["stats.linear_regression_calls"] = float(
        calls.get("linear_regression", 0)
    )
    values["engine.store.bytes_written"] = float(trace["store_bytes_written"])
    values["engine.store.bytes_read"] = float(trace["store_bytes_read"])
    values["bench.span_coverage"] = spans.coverage(
        recorded, trace["started"], trace["ended"]
    )
    return values
