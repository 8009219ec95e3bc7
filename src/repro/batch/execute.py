"""Execute phase of the round: schedule, draws, loops, bulk writes.

The execute phase walks the planned batch in dispatch order and performs
exactly the order-sensitive work the plan deferred: the 25-slot worker
pool schedule (which stamps every observation), the shared-RNG draws
(identity probes, then the repeated-download loops), and the database
writes.  Per-site draw accounting is the whole game — a DNS-filtered
site consumes nothing, a v6-unreachable site still burns the IPv4
probe's Gaussian, a measured site runs two converging loops — and the
pinned content digests hold it in place.

Faulty worlds route through :func:`_execute_faulted` instead: site
fates there depend on injected failures (a DNS-exhausted family flips a
site to single-stack, probe retries consume extra draws), so the walk
classifies each site at execute time, with DNS retries, identity probes
and :func:`~repro.monitor.download.run_faulted_loop`, and server fault
decisions prefetched per probe/loop span through
:meth:`HttpClient.fault_batch`.
"""

from __future__ import annotations

import heapq
import math

from ..dns.resolver import ResolutionResult
from ..errors import DnsTimeout, UnreachableError
from ..monitor.database import (
    DnsObservation,
    DownloadObservation,
    FaultObservation,
    PageCheck,
    PathObservation,
    TransitionObservation,
)
from ..monitor.download import run_converging_loop, run_faulted_loop
from ..monitor.tool import (
    _DNS_FILTERED,
    _DUAL_STACK,
    _FAULTS,
    _IDENTITY_FAILED,
    _MEASURED,
    _RETRIES_EXHAUSTED,
    _SITES_MONITORED,
    _SLOT_OCCUPANCY,
    _UNREACHABLE,
    DNS_PHASE_SECONDS,
    PAGE_CHECK_SECONDS,
    RoundReport,
)
from ..net.addresses import AddressFamily
from ..obs import get_logger, metrics
from .plan import (
    IDENTITY_FAILED,
    UNREACHABLE_V4,
    UNREACHABLE_V6,
    RoundPlan,
    build_round_plan,
)

_LOG = get_logger("batch.execute")

#: the download loop's counters (same registry objects download.py holds).
_DOWNLOADS = metrics.counter("download.samples")
_CONVERGED = metrics.counter("download.loops_converged")
_EXHAUSTED = metrics.counter("download.loops_exhausted")
_LOOP_SAMPLES = metrics.histogram("download.samples_per_loop")
#: phase widths: how many sites each phase's arrays carried this round.
_BATCH_DNS_WIDTH = metrics.gauge("monitor.batch.dns_width")
_BATCH_IDENTITY_WIDTH = metrics.gauge("monitor.batch.identity_width")
_BATCH_DOWNLOAD_WIDTH = metrics.gauge("monitor.batch.download_width")

#: duration of a dual-stack site that proved unreachable, faults off.
_UNREACH_SECONDS = DNS_PHASE_SECONDS + PAGE_CHECK_SECONDS


def run_batched_round(
    tool,
    round_idx: int,
    order: list[str],
    listed_now: set[str],
    n_new: int,
    round_start: float,
) -> RoundReport:
    """One monitoring round (the :meth:`MonitoringTool.run_round` back end).

    Fault-free rounds are planned up front and executed on bulk draws;
    rounds on a world with a fault plan take the per-site faulted walk.
    """
    env = tool.env
    if env.resolver.fault_check is None and not env.client.has_fault_hook:
        plan = build_round_plan(tool, round_idx, order, listed_now)
        return _execute_plan(tool, plan, n_new, round_start)
    return _execute_faulted(
        tool, round_idx, order, listed_now, n_new, round_start
    )


def _execute_plan(
    tool, plan: RoundPlan, n_new: int, round_start: float
) -> RoundReport:
    """Fault-free execute: bulk draws and inline loops over the plan."""
    cfg = tool.config
    rng = tool.rng
    round_idx = plan.round_idx
    sigma = tool.env.client.model.config.measurement_noise_sigma
    gauss = rng.gauss
    exp = math.exp
    heappush = heapq.heappush
    heappop = heapq.heappop

    slots = [(round_start, slot) for slot in range(cfg.max_concurrent)]
    heapq.heapify(slots)
    busy: list[float] = []
    occupancy_max = 0
    makespan = round_start
    n_dns_filtered = n_dual = n_unreachable = n_identity_failed = n_measured = 0
    total_samples = n_converged = n_exhausted = 0
    download_rows: list[DownloadObservation] = []
    path_rows: list[PathObservation] = []
    record_transitions = tool.env.record_transitions
    transition_rows: list[TransitionObservation] = []

    for site in plan.sites:
        free_at, slot = heappop(slots)
        while busy and busy[0] <= free_at:
            heappop(busy)
        occupancy = 1 + len(busy)
        if occupancy > occupancy_max:
            occupancy_max = occupancy
        if site is None:
            n_dns_filtered += 1
            duration = DNS_PHASE_SECONDS
        elif (kind := site.kind) == UNREACHABLE_V4:
            n_dual += 1
            n_unreachable += 1
            duration = _UNREACH_SECONDS
        elif kind == UNREACHABLE_V6:
            n_dual += 1
            n_unreachable += 1
            if sigma > 0:
                # The IPv4 identity probe runs (and draws) before the
                # v6 endpoint is found to be dark.
                gauss(0.0, sigma)
            duration = _UNREACH_SECONDS
        else:
            n_dual += 1
            session_v4 = site.session_v4
            session_v6 = site.session_v6
            # Identity probes: one GET per family, v4 then v6.
            if sigma > 0:
                v4_seconds = session_v4.page_kbytes / (
                    session_v4.round_mean * exp(gauss(0.0, sigma))
                )
                v6_seconds = session_v6.page_kbytes / (
                    session_v6.round_mean * exp(gauss(0.0, sigma))
                )
            else:
                v4_seconds = session_v4.page_kbytes / session_v4.round_mean
                v6_seconds = session_v6.page_kbytes / session_v6.round_mean
            duration = v4_seconds + v6_seconds + DNS_PHASE_SECONDS
            if kind == IDENTITY_FAILED:
                n_identity_failed += 1
            else:
                n_measured += 1
                for family, session in (
                    (AddressFamily.IPV4, session_v4),
                    (AddressFamily.IPV6, session_v6),
                ):
                    n, mean, half, loop_seconds, converged = (
                        run_converging_loop(session, rng, cfg)
                    )
                    duration += loop_seconds
                    total_samples += n
                    _LOOP_SAMPLES.observe(n)
                    if converged:
                        n_converged += 1
                    else:
                        n_exhausted += 1
                    download_rows.append(
                        DownloadObservation(
                            site_id=site.site_id,
                            round_idx=round_idx,
                            family=family,
                            n_samples=n,
                            mean_speed=mean,
                            ci_half_width=half,
                            converged=converged,
                            page_bytes=session.endpoint.page_bytes,
                            timestamp=free_at,
                        )
                    )
                    as_path = session.path.as_path
                    path_rows.append(
                        PathObservation(
                            site_id=site.site_id,
                            round_idx=round_idx,
                            family=family,
                            dest_asn=as_path[-1],
                            as_path=as_path,
                        )
                    )
                if record_transitions:
                    transition_rows.append(
                        TransitionObservation(
                            site_id=site.site_id,
                            round_idx=round_idx,
                            kind=session_v6.path.transition_kind,
                        )
                    )
        finish = free_at + duration
        heappush(slots, (finish, slot))
        heappush(busy, finish)
        if finish > makespan:
            makespan = finish

    database = tool.database
    database.add_dns_round(round_idx, plan.listed_counts, plan.dns_rows)
    database.add_page_checks(plan.page_rows)
    database.add_downloads(download_rows)
    database.add_paths(path_rows)
    database.add_transitions(transition_rows)
    tool.pair_resolver.flush_counters()

    _SITES_MONITORED.inc(len(plan.sites))
    _DNS_FILTERED.inc(n_dns_filtered)
    _DUAL_STACK.inc(n_dual)
    _UNREACHABLE.inc(n_unreachable)
    _IDENTITY_FAILED.inc(n_identity_failed)
    _MEASURED.inc(n_measured)
    _DOWNLOADS.inc(total_samples)
    _CONVERGED.inc(n_converged)
    _EXHAUSTED.inc(n_exhausted)
    _record_phase_widths(len(plan.sites), n_dual, n_measured, occupancy_max)
    _LOG.debug(
        "batched round done",
        extra={
            "vantage": tool.vantage.name,
            "round": round_idx,
            "monitored": len(plan.sites),
            "new": n_new,
            "dual_stack": n_dual,
            "measured": n_measured,
            "failures": 0,
        },
    )
    return RoundReport(
        round_idx=round_idx,
        n_monitored=len(plan.sites),
        n_new=n_new,
        n_dual_stack=n_dual,
        n_measured=n_measured,
        makespan_seconds=makespan - round_start,
        n_failures=0,
    )


def _record_phase_widths(
    dns_width: int, identity_width: int, download_width: int, occupancy_max: int
) -> None:
    """Per-phase width gauges, plus the slot-occupancy high-water mark.

    The execute walk tracks the dispatch-instant pool occupancy and
    records the round's maximum here, once per round.
    """
    _BATCH_DNS_WIDTH.set(dns_width)
    _BATCH_IDENTITY_WIDTH.set(identity_width)
    _BATCH_DOWNLOAD_WIDTH.set(download_width)
    if occupancy_max:
        _SLOT_OCCUPANCY.update_max(occupancy_max)


def _execute_faulted(
    tool,
    round_idx: int,
    order: list[str],
    listed_now: set[str],
    n_new: int,
    round_start: float,
) -> RoundReport:
    """Execute a round whose fates depend on injected faults.

    Classification happens site by site (a DNS-exhausted family flips a
    site to single-stack; an exhausted probe abandons it), but server
    fault decisions are prefetched per probe span and per loop block.
    Rows land through the per-row ``add_*`` writes because fault rows
    interleave with the per-site tables in dispatch order; the round's
    failure count is the number of fault rows the walk added.
    """
    cfg = tool.config
    faults_before = len(tool.database.faults)
    slots = [(round_start, slot) for slot in range(cfg.max_concurrent)]
    heapq.heapify(slots)
    busy: list[float] = []
    occupancy_max = 0
    makespan = round_start
    n_dual = 0
    n_measured = 0
    for name in order:
        free_at, slot = heapq.heappop(slots)
        while busy and busy[0] <= free_at:
            heapq.heappop(busy)
        occupancy = 1 + len(busy)
        if occupancy > occupancy_max:
            occupancy_max = occupancy
        duration, dual_stack, measured = _monitor_site_faulted(
            tool, name, round_idx, free_at, listed=name in listed_now
        )
        finish = free_at + duration
        heapq.heappush(slots, (finish, slot))
        heapq.heappush(busy, finish)
        makespan = max(makespan, finish)
        n_dual += int(dual_stack)
        n_measured += int(measured)
    n_failures = len(tool.database.faults) - faults_before
    _record_phase_widths(len(order), n_dual, n_measured, occupancy_max)
    _LOG.debug(
        "batched round done",
        extra={
            "vantage": tool.vantage.name,
            "round": round_idx,
            "monitored": len(order),
            "new": n_new,
            "dual_stack": n_dual,
            "measured": n_measured,
            "failures": n_failures,
        },
    )
    return RoundReport(
        round_idx=round_idx,
        n_monitored=len(order),
        n_new=n_new,
        n_dual_stack=n_dual,
        n_measured=n_measured,
        makespan_seconds=makespan - round_start,
        n_failures=n_failures,
    )


def _record_fault(
    database, site_id: int, round_idx: int, family: AddressFamily, kind: str
) -> None:
    """Record one injected failure (database row and metrics)."""
    database.add_fault(
        FaultObservation(
            site_id=site_id, round_idx=round_idx, family=family, kind=kind
        )
    )
    _FAULTS.inc()
    if kind in ("exhausted", "dns_exhausted"):
        _RETRIES_EXHAUSTED.inc()


def _backoff_seconds(config, attempt: int) -> float:
    """Simulated wait before retry ``attempt`` (0-based, exponential)."""
    return config.retry_initial_seconds * config.retry_backoff ** attempt


def _query_both_with_retry(
    tool, name: str, site_id: int, round_idx: int, now: float
) -> tuple[dict[AddressFamily, ResolutionResult | None], float]:
    """The DNS phase with bounded retry on injected timeouts.

    Returns the per-family answers plus the extra simulated seconds
    the timeouts and backoff waits cost.  A family whose retry budget
    is exhausted counts as unresolved — in a faulty world a site can
    look v6-dark for a round, exactly the transient AAAA outages the
    paper's sanitization had to cope with.
    """
    cfg = tool.config
    resolver = tool.env.resolver
    results: dict[AddressFamily, ResolutionResult | None] = {}
    extra = 0.0
    for family in (AddressFamily.IPV4, AddressFamily.IPV6):
        for attempt in range(cfg.max_retries + 1):
            try:
                results[family] = resolver.resolve_quiet(
                    name, family, now + extra, attempt
                )
                break
            except DnsTimeout as exc:
                _record_fault(
                    tool.database, site_id, round_idx, family, "dns_timeout"
                )
                extra += exc.seconds
                if attempt < cfg.max_retries:
                    extra += _backoff_seconds(cfg, attempt)
        else:
            results[family] = None
            _record_fault(
                tool.database, site_id, round_idx, family, "dns_exhausted"
            )
    return results, extra


def _probe_prefetched(
    tool, session, family: AddressFamily, site_id: int, round_idx: int, decisions
) -> tuple[bool, float]:
    """One identity probe against prefetched fault decisions.

    Retries a faulted attempt after a backoff, recording each fault;
    draws exactly one shared-RNG Gaussian, on the first non-faulted
    attempt.  Returns (succeeded, simulated seconds spent).
    """
    cfg = tool.config
    seconds = 0.0
    for attempt in range(cfg.max_retries + 1):
        fault = decisions[attempt]
        if fault is None:
            sigma = session.noise_sigma
            if sigma > 0:
                speed = session.round_mean * math.exp(tool.rng.gauss(0.0, sigma))
            else:
                speed = session.round_mean
            seconds += session.page_kbytes / speed
            return True, seconds
        seconds += fault.seconds
        _record_fault(tool.database, site_id, round_idx, family, fault.kind)
        if attempt < cfg.max_retries:
            seconds += _backoff_seconds(cfg, attempt)
    _record_fault(tool.database, site_id, round_idx, family, "exhausted")
    return False, seconds


def _monitor_site_faulted(
    tool, name: str, round_idx: int, now: float, listed: bool
) -> tuple[float, bool, bool]:
    """One site under injected faults: (duration, dual_stack, measured)."""
    _SITES_MONITORED.inc()
    site_id = tool.site_ids.get(name)
    if site_id is None:
        site_id = tool.site_ids[name] = tool.env.site_id_of(name)
    answers, dns_extra = _query_both_with_retry(
        tool, name, site_id, round_idx, now
    )
    v4 = answers[AddressFamily.IPV4]
    v6 = answers[AddressFamily.IPV6]
    database = tool.database
    database.add_dns(
        DnsObservation(
            site_id=site_id,
            name=name,
            round_idx=round_idx,
            has_v4=v4 is not None,
            has_v6=v6 is not None,
            listed=listed,
        )
    )
    if v4 is None or v6 is None:
        _DNS_FILTERED.inc()
        return DNS_PHASE_SECONDS + dns_extra, False, False
    _DUAL_STACK.inc()

    client = tool.env.client
    probe_keys = [f"probe:{idx}" for idx in range(tool.config.max_retries + 1)]
    try:
        session_v4 = client.open(
            v4.final_name, v4.addresses[0], AddressFamily.IPV4, round_idx
        )
        probe_v4_ok, v4_seconds = _probe_prefetched(
            tool,
            session_v4,
            AddressFamily.IPV4,
            site_id,
            round_idx,
            client.fault_batch(
                site_id, AddressFamily.IPV4, round_idx, probe_keys
            ),
        )
        session_v6 = client.open(
            v6.final_name, v6.addresses[0], AddressFamily.IPV6, round_idx
        )
        probe_v6_ok, v6_seconds = _probe_prefetched(
            tool,
            session_v6,
            AddressFamily.IPV6,
            site_id,
            round_idx,
            client.fault_batch(
                site_id, AddressFamily.IPV6, round_idx, probe_keys
            ),
        )
    except UnreachableError:
        _UNREACHABLE.inc()
        return DNS_PHASE_SECONDS + dns_extra + PAGE_CHECK_SECONDS, True, False
    if not probe_v4_ok or not probe_v6_ok:
        return (
            DNS_PHASE_SECONDS + dns_extra + v4_seconds + v6_seconds,
            True,
            False,
        )
    v4_bytes = session_v4.endpoint.page_bytes
    v6_bytes = session_v6.endpoint.page_bytes
    larger = max(v4_bytes, v6_bytes)
    identical = abs(v4_bytes - v6_bytes) / larger <= tool.config.identity_threshold
    database.add_page_check(
        PageCheck(
            site_id=site_id,
            round_idx=round_idx,
            v4_bytes=v4_bytes,
            v6_bytes=v6_bytes,
            identical=identical,
        )
    )
    duration = v4_seconds + v6_seconds + DNS_PHASE_SECONDS + dns_extra
    if not identical:
        _IDENTITY_FAILED.inc()
        return duration, True, False

    fully_measured = True
    for family, session in (
        (AddressFamily.IPV4, session_v4),
        (AddressFamily.IPV6, session_v6),
    ):
        outcome = run_faulted_loop(session, tool.rng, tool.config)
        duration += outcome.total_seconds
        for _ in range(outcome.n_timeouts):
            _record_fault(database, site_id, round_idx, family, "timeout")
        for _ in range(outcome.n_resets):
            _record_fault(database, site_id, round_idx, family, "reset")
        if outcome.gave_up:
            _record_fault(database, site_id, round_idx, family, "exhausted")
        if outcome.n_samples == 0:
            # Every attempt failed: nothing measurable this round.
            fully_measured = False
            continue
        database.add_download(
            DownloadObservation(
                site_id=site_id,
                round_idx=round_idx,
                family=family,
                n_samples=outcome.n_samples,
                mean_speed=outcome.mean_speed,
                ci_half_width=outcome.ci_half_width,
                converged=outcome.converged,
                page_bytes=outcome.page_bytes,
                timestamp=now,
            )
        )
        as_path = session.path.as_path
        database.add_path(
            PathObservation(
                site_id=site_id,
                round_idx=round_idx,
                family=family,
                dest_asn=as_path[-1],
                as_path=as_path,
            )
        )
        if family is AddressFamily.IPV6 and tool.env.record_transitions:
            database.add_transition(
                TransitionObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    kind=session.path.transition_kind,
                )
            )
    if fully_measured:
        _MEASURED.inc()
    return duration, True, fully_measured
