"""The simulated HTTP GET.

:class:`HttpClient` is the seam between the monitoring tool and the
substrates: given a resolved address, it locates the serving endpoint,
obtains the forwarding path, and evaluates the round's mean speed from
the throughput model; the monitor's download loops then sample per-GET
speeds around that mean.  Dependencies are injected as callables so the
client is equally usable against the full world or against hand-built
fixtures in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..dataplane.path import ForwardingPath
from ..dataplane.performance import ThroughputModel
from ..errors import DownloadError, UnreachableError
from ..faults.plan import ServerFault
from ..net.addresses import Address, AddressFamily
from ..obs import metrics

#: deterministic work counters gated by the perf-regression harness
#: (module-cached: ``obs`` resets them in place).
_ENDPOINT_LOOKUPS = metrics.counter("web.endpoint_lookups")
_PATH_LOOKUPS = metrics.counter("web.path_lookups")
_SESSIONS = metrics.counter("web.sessions")


@dataclass(frozen=True)
class ContentEndpoint:
    """What serves a given (name, family, round): speed and page bytes."""

    site_id: int
    server_asn: int
    #: effective server-side speed (base x efficiency x behaviour) in kB/s.
    server_speed: float
    page_bytes: int

    def __post_init__(self) -> None:
        if self.server_speed <= 0:
            raise DownloadError("endpoint server_speed must be positive")
        if self.page_bytes <= 0:
            raise DownloadError("endpoint page_bytes must be positive")


#: (final_name, family, round) -> endpoint serving that name.
ContentLookup = Callable[[str, AddressFamily, int], ContentEndpoint]
#: (owner_asn, site_id, family, round) -> forwarding path or None.
PathProvider = Callable[[int, int, AddressFamily, int], Optional[ForwardingPath]]
#: address -> owning ASN.
OwnerLookup = Callable[[Address], int]
#: (site_id, family, round, fault_keys) -> one injected fault (or None)
#: per attempt key.
FaultHookBatch = Callable[
    [int, AddressFamily, int, "list[str]"], "list[Optional[ServerFault]]"
]


class DownloadSession:
    """One (name, address, family, round) with its lookups pinned.

    The repeated-download loop issues tens of GETs against the same
    coordinates; the endpoint, forwarding path, and round-mean speed are
    all functions of those coordinates alone, so a session resolves them
    once and each GET only draws the per-sample speed.  Fault decisions
    are not pinned: each attempt is an independent draw from the fault
    plan, asked through :meth:`HttpClient.fault_batch`.
    """

    __slots__ = (
        "client",
        "final_name",
        "address",
        "family",
        "round_idx",
        "endpoint",
        "path",
        "round_mean",
        "noise_sigma",
        "page_kbytes",
    )

    def __init__(
        self,
        client: "HttpClient",
        final_name: str,
        address: Address,
        family: AddressFamily,
        round_idx: int,
        endpoint: ContentEndpoint,
        path: ForwardingPath,
        round_mean: float,
    ) -> None:
        self.client = client
        self.final_name = final_name
        self.address = address
        self.family = family
        self.round_idx = round_idx
        self.endpoint = endpoint
        self.path = path
        self.round_mean = round_mean
        # Sampling constants, pinned so each GET is one Gaussian draw and
        # a couple of multiplies (same float expressions the model's
        # sample_download_speed_batch / download_seconds evaluate).
        self.noise_sigma = client.model.config.measurement_noise_sigma
        self.page_kbytes = endpoint.page_bytes / 1000.0


class HttpClient:
    """Simulates main-page downloads from one vantage point."""

    def __init__(
        self,
        model: ThroughputModel,
        content_lookup: ContentLookup,
        path_provider: PathProvider,
        owner_lookup: OwnerLookup,
        fault_hook_batch: FaultHookBatch | None = None,
    ) -> None:
        self._model = model
        self._content_lookup = content_lookup
        self._path_provider = path_provider
        self._owner_lookup = owner_lookup
        self._fault_hook_batch = fault_hook_batch

    @property
    def model(self) -> ThroughputModel:
        """The throughput model downloads sample from (read-only)."""
        return self._model

    @property
    def has_fault_hook(self) -> bool:
        """Whether GETs consult a fault hook."""
        return self._fault_hook_batch is not None

    def fault_batch(
        self,
        site_id: int,
        family: AddressFamily,
        round_idx: int,
        fault_keys: list[str],
    ) -> list[ServerFault | None]:
        """One fault decision per attempt key (all ``None`` with no hook).

        The faulted monitor prefetches a probe's retry budget or a block
        of loop attempts in one call; each decision is a pure function
        of its coordinates, so a key's answer never depends on which
        other keys share its batch.
        """
        hook = self._fault_hook_batch
        if hook is None:
            return [None] * len(fault_keys)
        return hook(site_id, family, round_idx, fault_keys)

    def open(
        self,
        final_name: str,
        address: Address,
        family: AddressFamily,
        round_idx: int,
    ) -> DownloadSession:
        """Resolve endpoint, path, and round mean once for repeated GETs.

        A width-1 :meth:`open_many`.  Raises :class:`UnreachableError`
        when no forwarding path exists (the destination is v6-dark from
        this vantage, say).
        """
        session = self.open_many([(final_name, address, family, round_idx)])[0]
        if session is None:
            raise UnreachableError(f"no {family} path for {final_name}")
        return session

    def open_many(
        self,
        requests: "list[tuple[str, Address, AddressFamily, int]]",
    ) -> "list[DownloadSession | None]":
        """Open a batch of sessions; ``None`` marks unreachable coordinates.

        The round plan opens every dual-stack site's sessions in one
        sweep: lookups run per request, and the latent means are
        evaluated through :meth:`ThroughputModel.round_mean_speed_batch`.
        The round mean is resolved here because it depends only on the
        session coordinates; its round noise comes from the model's
        private streams, so opening never touches the shared per-sample
        RNG.  An unreachable request still costs one endpoint and one
        path lookup in the work counters, but never a session.  All
        requests must share one round.
        """
        content_lookup = self._content_lookup
        path_provider = self._path_provider
        owner_lookup = self._owner_lookup
        endpoints: list[ContentEndpoint | None] = []
        paths: list[ForwardingPath | None] = []
        for final_name, address, family, round_idx in requests:
            if address.family is not family:
                raise DownloadError(
                    f"address {address} is not an {family} address"
                )
            endpoint = content_lookup(final_name, family, round_idx)
            owner_asn = owner_lookup(address)
            path = path_provider(owner_asn, endpoint.site_id, family, round_idx)
            endpoints.append(endpoint)
            paths.append(path)
        _ENDPOINT_LOOKUPS.inc(len(requests))
        _PATH_LOOKUPS.inc(len(requests))
        reachable = [idx for idx, path in enumerate(paths) if path is not None]
        means = self._model.round_mean_speed_batch(
            [endpoints[idx].server_speed for idx in reachable],
            [paths[idx] for idx in reachable],
            [endpoints[idx].site_id for idx in reachable],
            requests[0][3] if requests else 0,
        )
        sessions: list[DownloadSession | None] = [None] * len(requests)
        for mean, idx in zip(means, reachable):
            final_name, address, family, round_idx = requests[idx]
            sessions[idx] = DownloadSession(
                client=self,
                final_name=final_name,
                address=address,
                family=family,
                round_idx=round_idx,
                endpoint=endpoints[idx],
                path=paths[idx],
                round_mean=mean,
            )
        _SESSIONS.inc(len(reachable))
        return sessions
