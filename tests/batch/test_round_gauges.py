"""Rounds publish per-phase batch widths and the slot-occupancy mark."""

from __future__ import annotations

from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.obs import metrics

CFG = small_config(seed=7, scale=0.5)


def test_batched_round_sets_phase_width_gauges():
    metrics.get_registry().reset()
    run_campaign(build_world(CFG), n_rounds=2)
    dns = metrics.gauge("monitor.batch.dns_width")
    identity = metrics.gauge("monitor.batch.identity_width")
    download = metrics.gauge("monitor.batch.download_width")
    occupancy = metrics.gauge("monitor.slot_occupancy")
    # Every dispatched site passes the DNS phase; only dual-stack sites
    # reach identity; only identical pairs reach the download loops.
    assert dns.value >= identity.value >= download.value >= 1
    assert occupancy.max_value >= 1

