"""On-disk campaign store semantics."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.config import small_config
from repro.data.columnar import _BINARY_HEADER
from repro.engine.store import CampaignStore, config_digest
from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    MeasurementDatabase,
    PathObservation,
)
from repro.monitor.tool import RoundReport
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def tiny_campaign():
    db = MeasurementDatabase(vantage_name="T")
    db.add_dns(DnsObservation(1, "s1", 0, True, True))
    db.add_dns(DnsObservation(2, "s2", 0, True, False))
    for family in (V4, V6):
        for round_idx in (0, 1):
            db.add_download(
                DownloadObservation(
                    site_id=1,
                    round_idx=round_idx,
                    family=family,
                    n_samples=5,
                    mean_speed=100.0 + round_idx,
                    ci_half_width=1.5,
                    converged=True,
                    page_bytes=1000,
                    timestamp=float(round_idx),
                )
            )
    db.add_path(PathObservation(1, 0, V4, dest_asn=30, as_path=(10, 20, 30)))
    vantage = VantagePoint(
        name="T",
        location="X",
        asn=10,
        start_round=0,
        as_path_available=True,
        white_listed=False,
        kind=VantageKind.ACADEMIC,
    )
    repository = CentralRepository()
    repository.add(vantage, db)
    reports = {
        "T": [RoundReport(0, 2, 2, 1, 1, 12.5), RoundReport(1, 2, 0, 1, 1, 11.0)]
    }
    return repository, reports


class TestConfigDigest:
    def test_stable_across_calls(self):
        cfg = small_config(seed=3)
        assert config_digest(cfg) == config_digest(small_config(seed=3))

    def test_differs_by_seed_and_kind(self):
        cfg = small_config(seed=3)
        assert config_digest(cfg) != config_digest(small_config(seed=4))
        assert config_digest(cfg, kind="weekly") != config_digest(cfg, kind="w6d")


class TestCampaignStore:
    def test_miss_on_empty_store(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.load(small_config(seed=3)) is None
        assert not store.has(small_config(seed=3))

    def test_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        assert store.has(cfg)

        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()
        assert stored.reports == reports

    def test_entry_holds_only_the_sealed_files(self, tmp_path):
        store = CampaignStore(tmp_path)
        repository, reports = tiny_campaign()
        entry = store.save(small_config(seed=3), repository, reports)
        assert sorted(p.name for p in entry.iterdir()) == [
            "columnar.bin", "meta.json", "reports.json"
        ]

    def test_kinds_are_separate_entries(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports, kind="weekly")
        assert store.load(cfg, kind="w6d") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.bin").write_bytes(b"RPRCOL garbage")
        assert store.load(cfg) is None

    def test_meta_records_repository_digest(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
        assert meta["repository_digest"] == repository.content_digest()
        assert meta["seed"] == cfg.seed


def _reseal(path, edit_meta):
    """Rewrite a ``columnar.bin`` with edited metadata and a valid sha256."""
    data = path.read_bytes()
    magic, version, meta_length, _ = _BINARY_HEADER.unpack_from(data)
    offset = _BINARY_HEADER.size
    meta = json.loads(data[offset : offset + meta_length])
    edit_meta(meta)
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    body = data[offset + meta_length :]
    digest = hashlib.sha256(meta_bytes + body).digest()
    path.write_bytes(
        _BINARY_HEADER.pack(magic, version, len(meta_bytes), digest)
        + meta_bytes
        + body
    )


def _downloads_meta(meta):
    tables = meta["databases"][0]["tables"]
    return next(t for t in tables if t["name"] == "downloads")


class TestCorruptedEntryRobustness:
    """Any unreadable cache entry is a miss with a warning — never a crash."""

    @staticmethod
    def _saved_entry(tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        return store, cfg, repository, reports, entry

    def _assert_miss_then_recompute(self, store, cfg, repository, reports, caplog):
        with caplog.at_level("WARNING", logger="repro.engine.store"):
            assert store.load(cfg) is None
        assert any(
            "unreadable store entry" in record.message
            for record in caplog.records
        )
        # "Recompute" in the CLI means re-running and re-saving; the
        # rewritten entry must be fully usable again.
        store.save(cfg, repository, reports)
        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()

    def test_truncated_columnar_bin(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        data = (entry / "columnar.bin").read_bytes()
        (entry / "columnar.bin").write_bytes(data[: len(data) // 2])
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_flipped_body_byte(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        data = bytearray((entry / "columnar.bin").read_bytes())
        data[-8] ^= 0xFF  # inside the last column buffer: sha256 mismatch
        (entry / "columnar.bin").write_bytes(bytes(data))
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_missing_reports_key(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "reports.json").write_text("{}", encoding="utf-8")
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_truncated_reports_json(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        payload = (entry / "reports.json").read_text(encoding="utf-8")
        (entry / "reports.json").write_text(
            payload[: len(payload) // 2], encoding="utf-8"
        )
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_malformed_table_rows(self, tmp_path, caplog):
        # a resealed binary whose downloads table declares one row more
        # than its buffers hold: the sha256 passes, the table decode fails
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)

        def add_a_row(meta):
            _downloads_meta(meta)["n_rows"] += 1

        _reseal(entry / "columnar.bin", add_a_row)
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_store_format_mismatch(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
        meta["store_format"] = 99
        (entry / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_out_of_order_rows_violate_invariant(self, tmp_path, caplog):
        # a validly sealed binary whose downloads rows run backwards in
        # round order: to_database raises a MonitorError
        from repro.data.columnar import (
            ColumnarDatabase,
            ColumnarTable,
            load_columnar_binary,
            write_columnar_binary,
        )

        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        columnar = load_columnar_binary(entry / "columnar.bin")
        name, cdb = next(iter(columnar.databases.items()))
        tables = dict(cdb.tables)
        rows = tables["downloads"].rows()
        rows.reverse()
        tables["downloads"] = ColumnarTable.from_rows("downloads", rows)
        columnar.databases[name] = ColumnarDatabase(name, tables)
        write_columnar_binary(entry / "columnar.bin", columnar)
        self._assert_miss_then_recompute(store, cfg, repository, reports, caplog)

    def test_corruption_is_logged_as_warning(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "columnar.bin").write_bytes(b"RPRCOL garbage")
        with caplog.at_level("WARNING", logger="repro.engine.store"):
            assert store.load(cfg) is None
        assert any(
            "unreadable store entry" in record.message
            for record in caplog.records
        )


class TestColumnarArtifact:
    """columnar.bin and the no-world load paths."""

    def test_load_repository_without_world(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        loaded = store.load_repository(cfg)
        assert loaded is not None
        assert loaded.content_digest() == repository.content_digest()
        assert store.load_repository(small_config(seed=4)) is None

    def test_load_columnar_entry(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        meta, columnar = store.load_columnar_entry(digest)
        assert meta["digest"] == digest
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )
        assert store.load_columnar_entry("deadbeef") is None

    def test_save_writes_binary_artifact(self, tmp_path):
        from repro.data.columnar import BINARY_MAGIC, load_columnar_binary

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        binary_path = entry / "columnar.bin"
        assert binary_path.read_bytes().startswith(BINARY_MAGIC)
        columnar = load_columnar_binary(binary_path)
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )

    def test_binary_preferred_on_load(self, tmp_path):
        # every load decodes columnar.bin and counts it
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        before = metrics.counter("engine.store.bin_loads").value
        loaded = store.load_columnar_entry(config_digest(cfg))
        assert loaded is not None
        assert store.load(cfg) is not None
        assert store.load_repository(cfg) is not None
        assert metrics.counter("engine.store.bin_loads").value == before + 3
        _, columnar = loaded
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )

    def test_loaded_columns_are_the_databases_view(self, tmp_path):
        from repro.data.columnar import columnar_view
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        loaded = store.load_repository(cfg)
        before = metrics.counter("data.columnar.encodes").value
        for _, db in loaded.items():
            columnar_view(db)
        assert metrics.counter("data.columnar.encodes").value == before

    def test_corrupt_columnar_artifacts_are_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.bin").write_bytes(b"\x00")
        assert store.load_columnar_entry(config_digest(cfg)) is None
        assert store.load_repository(cfg) is None


class TestAtomicPublish:
    """A save publishes a complete entry or nothing."""

    @pytest.mark.parametrize("failing_step", ["binary", "reports"])
    def test_failed_save_leaves_no_entry(self, tmp_path, monkeypatch, failing_step):
        import repro.engine.store as store_module

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        if failing_step == "binary":
            monkeypatch.setattr(store_module, "write_columnar_binary", boom)
        else:
            monkeypatch.setattr(RoundReport, "to_dict", boom)
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        with pytest.raises(RuntimeError):
            store.save(cfg, repository, reports)
        assert not store.entry_dir(config_digest(cfg)).exists()
        assert store.entries() == []
        assert list((tmp_path / "staging").iterdir()) == []

    def test_failed_save_keeps_the_old_entry(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(RoundReport, "to_dict", boom)
        with pytest.raises(RuntimeError):
            store.save(cfg, repository, reports)
        monkeypatch.undo()
        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()

    def test_save_replaces_the_whole_entry(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "stale.txt").write_text("left by an older writer")
        other = CentralRepository()
        vantage = repository.vantage("T")
        other.add(vantage, MeasurementDatabase(vantage_name="T"))
        store.save(cfg, other, {"T": []})
        assert sorted(p.name for p in entry.iterdir()) == [
            "columnar.bin", "meta.json", "reports.json"
        ]
        stored = store.load(cfg)
        assert stored.repository.content_digest() == other.content_digest()
        assert stored.reports == {"T": []}
        assert [e.repository_digest for e in store.entries()] == [
            other.content_digest()
        ]
        assert list((tmp_path / "staging").iterdir()) == []

    def test_concurrent_saves_leave_one_loadable_entry(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        n_writers = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(n_writers)
        errors = []

        def writer():
            try:
                barrier.wait(timeout=30)
                for _ in range(10):
                    store.save(cfg, repository, reports)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(n_writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [e.digest for e in store.entries()] == [config_digest(cfg)]
        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()
        assert list((tmp_path / "staging").iterdir()) == []

    def test_prune_clears_stale_staging(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        stale = tmp_path / "staging" / f"{digest}.{finished.pid}.crashed"
        stale.mkdir()
        (stale / "columnar.bin").write_bytes(b"partial")
        live = tmp_path / "staging" / f"{digest}.{os.getpid()}.writing"
        live.mkdir()
        assert store.prune(keep_latest=1) == []
        assert not stale.exists()
        assert live.exists()
        assert store.load(cfg) is not None


class TestObserverReports:
    def test_round_trip(self, tmp_path):
        from repro.observers import ObserverReport

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        assert store.list_observer_reports(digest) == []
        assert store.load_observer_report(digest, "speed_parity") is None
        observer_reports = {
            name: ObserverReport(
                name=name,
                version=1,
                campaign_digest=digest,
                body={"summary": {"x": 1.0}, "series": {}},
            )
            for name in ("speed_parity", "hop_inflation")
        }
        store.save_observer_reports(digest, observer_reports)
        assert store.list_observer_reports(digest) == [
            "hop_inflation", "speed_parity"
        ]
        raw = store.load_observer_report(digest, "speed_parity")
        assert raw == observer_reports["speed_parity"].canonical_bytes()
        restored = ObserverReport.from_payload(json.loads(raw))
        assert restored == observer_reports["speed_parity"]
        # each report was renamed into place: no temporary files remain
        assert sorted(p.name for p in store.observers_dir(digest).iterdir()) == [
            "hop_inflation.json", "speed_parity.json"
        ]

    def test_size_bytes_counts_observer_reports(self, tmp_path):
        from repro.observers import ObserverReport

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        report = ObserverReport(
            name="speed_parity",
            version=1,
            campaign_digest=digest,
            body={"summary": {"pad": "x" * 50_000}, "series": {}},
        )
        store.save_observer_reports(digest, {"speed_parity": report})
        on_disk = sum(p.stat().st_size for p in entry.rglob("*") if p.is_file())
        (listed,) = store.entries()
        assert listed.size_bytes == on_disk
        assert on_disk > 50_000
