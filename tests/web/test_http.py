"""The simulated HTTP client against hand-built dependencies."""

from __future__ import annotations

import pytest

from repro.config import PerformanceConfig
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.errors import DownloadError, UnreachableError
from repro.net.addresses import AddressFamily, IPv4Address, IPv6Address
from repro.obs import metrics
from repro.rng import RngStreams
from repro.web.http import ContentEndpoint, HttpClient

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def make_client(path=None):
    model = ThroughputModel(PerformanceConfig(), RngStreams(5))
    if path is None:
        path = ForwardingPath(
            family=V4, as_path=(1, 2, 3), quality=1.0, tunnels=(), tunnel_quality=0.8
        )

    def content_lookup(name, family, round_idx):
        return ContentEndpoint(
            site_id=7, server_asn=3, server_speed=100.0, page_bytes=50_000
        )

    def path_provider(owner, site_id, family, round_idx):
        return path

    return HttpClient(
        model=model,
        content_lookup=content_lookup,
        path_provider=path_provider,
        owner_lookup=lambda address: 3,
    ), model


class TestGet:
    """What a GET downloads: the session :meth:`HttpClient.open` pins."""

    def test_successful_download(self):
        client, model = make_client()
        session = client.open("site.example", IPv4Address(1), V4, 0)
        assert session.endpoint.page_bytes == 50_000
        assert session.page_kbytes == 50.0
        assert session.path.as_path == (1, 2, 3)
        assert session.endpoint.server_asn == 3
        assert session.noise_sigma == model.config.measurement_noise_sigma
        assert session.round_mean == model.round_mean_speed(
            100.0, session.path, site_id=7, round_idx=0
        )

    def test_speed_scales_with_path_factor(self):
        short = ForwardingPath(
            family=V4, as_path=(1, 3), quality=1.0, tunnels=(), tunnel_quality=0.8
        )
        long = ForwardingPath(
            family=V4,
            as_path=(1, 2, 4, 5, 6, 3),
            quality=1.0,
            tunnels=(),
            tunnel_quality=0.8,
        )
        fast_client, _ = make_client(short)
        slow_client, _ = make_client(long)
        fast = fast_client.open("s", IPv4Address(1), V4, 0)
        slow = slow_client.open("s", IPv4Address(1), V4, 0)
        assert fast.round_mean > slow.round_mean

    def test_unreachable_destination(self):
        client, _ = make_client()
        client_unreachable = HttpClient(
            model=client.model,
            content_lookup=client._content_lookup,
            path_provider=lambda *args: None,
            owner_lookup=lambda address: 3,
        )
        with pytest.raises(UnreachableError):
            client_unreachable.open("site.example", IPv4Address(1), V4, 0)
        assert client_unreachable.open_many(
            [("site.example", IPv4Address(1), V4, 0)]
        ) == [None]

    def test_family_mismatch_rejected(self):
        client, _ = make_client()
        with pytest.raises(DownloadError):
            client.open("site.example", IPv6Address(1), V4, 0)

    def test_open_counts_work_like_open_many(self):
        client, _ = make_client()
        dark = HttpClient(
            model=client.model,
            content_lookup=client._content_lookup,
            path_provider=lambda *args: None,
            owner_lookup=lambda address: 3,
        )
        names = ("web.endpoint_lookups", "web.path_lookups", "web.sessions")
        registry = metrics.get_registry()
        registry.reset()
        client.open("a", IPv4Address(1), V4, 0)
        with pytest.raises(UnreachableError):
            dark.open("b", IPv4Address(1), V4, 0)
        opened = [metrics.counter(name).value for name in names]
        registry.reset()
        client.open_many([("a", IPv4Address(1), V4, 0)])
        dark.open_many([("b", IPv4Address(1), V4, 0)])
        assert [metrics.counter(name).value for name in names] == opened
        assert opened == [2.0, 2.0, 1.0]


class TestContentEndpoint:
    def test_validation(self):
        with pytest.raises(DownloadError):
            ContentEndpoint(site_id=1, server_asn=2, server_speed=0, page_bytes=10)
        with pytest.raises(DownloadError):
            ContentEndpoint(site_id=1, server_asn=2, server_speed=10, page_bytes=0)
