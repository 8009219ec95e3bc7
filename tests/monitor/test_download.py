"""The repeated-download loops: stopping rule, give-up, and agreement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MonitorConfig, PerformanceConfig
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.faults.plan import ServerFault
from repro.monitor.download import run_converging_loop, run_faulted_loop
from repro.net.addresses import AddressFamily, IPv4Address
from repro.rng import RngStreams
from repro.web.http import ContentEndpoint, HttpClient

V4 = AddressFamily.IPV4


def open_session(noise_sigma: float, fault_hook_batch=None):
    """One opened session on a 1-hop path to an 80 kB/s, 30 kB page."""
    model = ThroughputModel(
        PerformanceConfig(
            measurement_noise_sigma=noise_sigma, round_noise_sigma=0.0
        ),
        RngStreams(1),
    )
    path = ForwardingPath(
        family=V4, as_path=(1, 2), quality=1.0, tunnels=(), tunnel_quality=0.8
    )
    client = HttpClient(
        model=model,
        content_lookup=lambda name, family, r: ContentEndpoint(
            site_id=1, server_asn=2, server_speed=80.0, page_bytes=30_000
        ),
        path_provider=lambda *a: path,
        owner_lookup=lambda a: 2,
        fault_hook_batch=fault_hook_batch,
    )
    return client.open("s", IPv4Address(1), V4, 0)


def faulting(decide):
    """A batched fault hook deciding each attempt key with ``decide``."""
    return lambda site, fam, r, keys: [decide(key) for key in keys]


class TestStoppingRule:
    def test_low_noise_converges_at_min_downloads(self):
        n, _mean, _half, _seconds, converged = run_converging_loop(
            open_session(noise_sigma=0.01), random.Random(2), MonitorConfig()
        )
        assert converged
        assert n == MonitorConfig().min_downloads

    def test_zero_noise_has_zero_width(self):
        _n, _mean, half, _seconds, converged = run_converging_loop(
            open_session(noise_sigma=0.0), random.Random(2), MonitorConfig()
        )
        assert converged
        assert half == 0.0

    def test_moderate_noise_takes_more_samples(self):
        n, *_ = run_converging_loop(
            open_session(noise_sigma=0.25), random.Random(2), MonitorConfig()
        )
        assert n > MonitorConfig().min_downloads

    def test_extreme_noise_hits_cap_unconverged(self):
        config = MonitorConfig(max_downloads=8)
        n, _mean, _half, _seconds, converged = run_converging_loop(
            open_session(noise_sigma=1.2), random.Random(2), config
        )
        assert n == 8
        assert not converged

    def test_outcome_carries_page_and_timing(self):
        session = open_session(noise_sigma=0.05)
        _n, _mean, _half, seconds, _converged = run_converging_loop(
            session, random.Random(2), MonitorConfig()
        )
        assert session.endpoint.page_bytes == 30_000
        assert seconds > 0
        assert session.path.as_path == (1, 2)

    def test_mean_speed_near_latent_speed(self):
        _n, mean, *_ = run_converging_loop(
            open_session(noise_sigma=0.05), random.Random(2), MonitorConfig()
        )
        # latent = 80 (server) since path factor is 1 for a 1-hop path.
        assert mean == pytest.approx(80.0, rel=0.1)


class TestGiveUp:
    """The abandoned-loop edge: max_retries consecutive failures."""

    def test_all_failing_loop_gives_up_with_exact_timing(self):
        fault = ServerFault(kind="timeout", seconds=3.5)
        session = open_session(
            noise_sigma=0.0, fault_hook_batch=faulting(lambda key: fault)
        )
        cfg = MonitorConfig()
        outcome = run_faulted_loop(session, random.Random(2), cfg)
        assert outcome.gave_up
        assert not outcome.converged
        assert outcome.n_samples == 0
        assert outcome.page_bytes == 0
        assert outcome.mean_speed == 0.0
        assert outcome.n_failed == cfg.max_retries + 1
        assert outcome.n_timeouts == cfg.max_retries + 1
        assert outcome.n_resets == 0
        # Every attempt burns the fault's seconds; backoff is charged
        # after each failure *except* the last one (the loop gives up
        # instead of waiting again).
        expected = (cfg.max_retries + 1) * fault.seconds + sum(
            cfg.retry_initial_seconds * cfg.retry_backoff**k
            for k in range(cfg.max_retries)
        )
        assert outcome.total_seconds == pytest.approx(expected)

    def test_transient_fault_recovers_without_giving_up(self):
        fails = {"loop:0", "loop:1"}
        session = open_session(
            noise_sigma=0.0,
            fault_hook_batch=faulting(
                lambda key: (
                    ServerFault(kind="reset", seconds=1.0)
                    if key in fails
                    else None
                )
            ),
        )
        outcome = run_faulted_loop(session, random.Random(2), MonitorConfig())
        assert not outcome.gave_up
        assert outcome.converged
        assert outcome.n_failed == 2
        assert outcome.n_resets == 2
        assert outcome.n_samples == MonitorConfig().min_downloads
        assert outcome.page_bytes == 30_000


class TestLoopAgreement:
    """With no faults, the faulted loop is the converging loop.

    The two loops serve the two kinds of round; this is the check that
    they compute the same statistics from the same draws.
    """

    @given(
        sigma=st.one_of(st.just(0.0), st.floats(0.001, 1.5)),
        min_n=st.integers(2, 12),
        extra_n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        warm_draws=st.integers(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_fault_free_loops_agree(self, sigma, min_n, extra_n, seed, warm_draws):
        config = MonitorConfig(min_downloads=min_n, max_downloads=min_n + extra_n)
        no_faults = faulting(lambda key: None)
        rng_faulted = random.Random(seed)
        rng_converging = random.Random(seed)
        # An odd number of earlier draws leaves a cached gauss partner.
        for rng in (rng_faulted, rng_converging):
            for _ in range(warm_draws):
                rng.gauss(0.0, 1.0)
        outcome = run_faulted_loop(
            open_session(sigma, fault_hook_batch=no_faults), rng_faulted, config
        )
        n, mean, half, seconds, converged = run_converging_loop(
            open_session(sigma), rng_converging, config
        )
        assert (
            outcome.n_samples,
            outcome.mean_speed,
            outcome.ci_half_width,
            outcome.total_seconds,
            outcome.converged,
        ) == (n, mean, half, seconds, converged)
        assert rng_faulted.getstate() == rng_converging.getstate()
        assert outcome.n_failed == 0 and not outcome.gave_up
