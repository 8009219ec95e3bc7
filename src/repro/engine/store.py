"""The on-disk campaign store (the cache's second tier).

``experiments.scenario`` used to cache campaigns in process memory only,
so every CLI invocation rebuilt the world and re-ran the campaign from
scratch.  :class:`CampaignStore` persists a completed campaign under
``.repro-cache/`` keyed by a stable content digest of its
:class:`~repro.config.ScenarioConfig`, so a second ``repro run-all`` with
an intact cache directory skips the campaign.

Layout::

    <root>/campaigns/<digest>/
        meta.json          store format, digest, kind, seed, repository digest
        columnar.bin       every measurement table (repro.data binary form)
        reports.json       per-vantage RoundReport dicts
        observers/<name>.json   canonical ObserverReport artifacts
    <root>/staging/<digest>.<pid>.<token>/
                           entries being written, or displaced ones being
                           deleted

``columnar.bin`` is the only stored copy of the tables.  Its sha256 is
verified on every load and decoding back to rows re-validates the
monitor's invariants, so a truncated, bit-flipped or out-of-order entry
is a logged miss like any other unreadable one.  No world is stored: a
hit rebuilds it from the config, and nothing read from the cache
directory is ever unpickled.

Entries are published atomically.  :meth:`CampaignStore.save` writes a
complete entry into a private staging directory on the same filesystem
and renames it into ``campaigns/``; an entry it replaces is first renamed
aside into staging and deleted afterwards.  A reader sees the old entry,
a miss, or the new entry, never a torn one.  :meth:`CampaignStore.prune`
removes staging directories whose writer process is gone.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import pathlib
import secrets
import shutil
from dataclasses import dataclass

from ..config import ScenarioConfig
from ..data.columnar import (
    ColumnarRepository,
    load_columnar_binary,
    write_columnar_binary,
)
from ..errors import DataError, ReproError
from ..monitor.aggregate import CentralRepository
from ..monitor.database import SERIAL_FORMAT
from ..monitor.tool import RoundReport
from ..obs import get_logger, metrics, span

_LOG = get_logger("engine.store")

#: store layout version; bumped on incompatible changes (also part of the
#: digest, so old entries simply miss instead of failing to parse).
STORE_FORMAT = 1

#: default cache root, overridable via the ``REPRO_CACHE_DIR`` env var.
DEFAULT_CACHE_ROOT = ".repro-cache"

#: disk-tier effectiveness counters (module-cached; obs resets in place).
_STORE_HITS = metrics.counter("engine.store.hits")
_STORE_MISSES = metrics.counter("engine.store.misses")
_STORE_WRITES = metrics.counter("engine.store.writes")
#: entries decoded from columnar.bin (every load that got that far).
_BIN_LOADS = metrics.counter("engine.store.bin_loads")


def config_digest(config: ScenarioConfig, kind: str = "weekly") -> str:
    """Stable content digest identifying one campaign.

    SHA-256 over the canonical JSON of the config's full field tree plus
    the store and database format versions and the campaign kind — the
    same scenario always maps to the same directory, across processes and
    Python versions, and format bumps invalidate cleanly.
    """
    payload = {
        "store_format": STORE_FORMAT,
        "database_format": SERIAL_FORMAT,
        "kind": kind,
        "config": dataclasses.asdict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StoredCampaign:
    """A campaign loaded back from the store."""

    digest: str
    kind: str
    repository: CentralRepository
    reports: dict[str, list[RoundReport]]


@dataclass(frozen=True)
class StoreEntry:
    """One campaign directory's identity (meta.json, no table data)."""

    digest: str
    kind: str
    seed: int | None
    repository_digest: str | None
    path: pathlib.Path
    #: meta.json modification time (entries are ordered newest first).
    mtime: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Total bytes of the entry's files, observer reports included
        (best effort)."""
        try:
            return sum(
                path.stat().st_size
                for path in self.path.rglob("*")
                if path.is_file()
            )
        except OSError:
            return 0


def _writer_alive(staging_name: str) -> bool:
    """Whether the process named in a staging directory still runs."""
    try:
        os.kill(int(staging_name.split(".")[1]), 0)  # existence check only
    except (IndexError, ValueError, ProcessLookupError):
        return False
    except OSError:
        return True  # alive, but another user's process
    return True


class CampaignStore:
    """Content-addressed campaign persistence under one root directory."""

    def __init__(self, root: str | pathlib.Path = DEFAULT_CACHE_ROOT) -> None:
        self.root = pathlib.Path(root)

    def entry_dir(self, digest: str) -> pathlib.Path:
        return self.root / "campaigns" / digest

    def has(self, config: ScenarioConfig, kind: str = "weekly") -> bool:
        return (self.entry_dir(config_digest(config, kind)) / "meta.json").exists()

    # -- enumerate -----------------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every valid store entry, newest first (``repro cache ls``)."""
        campaigns = self.root / "campaigns"
        if not campaigns.is_dir():
            return []
        found: list[StoreEntry] = []
        for entry_dir in sorted(campaigns.iterdir()):
            meta_path = entry_dir / "meta.json"
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("store_format") != STORE_FORMAT:
                    continue
                found.append(
                    StoreEntry(
                        digest=meta.get("digest", entry_dir.name),
                        kind=meta.get("kind", "unknown"),
                        seed=meta.get("seed"),
                        repository_digest=meta.get("repository_digest"),
                        path=entry_dir,
                        mtime=meta_path.stat().st_mtime,
                    )
                )
            except (OSError, ValueError, AttributeError):
                # No/unreadable meta.json: not a valid entry; skip.
                continue
        found.sort(key=lambda e: (-e.mtime, e.digest))
        return found

    def prune(self, keep_latest: int) -> list[StoreEntry]:
        """Delete all but the newest ``keep_latest`` entries and every
        stale staging directory; returns the removed entries
        (``repro cache prune``)."""
        if keep_latest < 0:
            raise ValueError(f"keep_latest must be >= 0, got {keep_latest}")
        doomed = self.entries()[keep_latest:]
        for entry in doomed:
            aside = self._move_aside(entry.digest, entry.path)
            if aside is not None:
                shutil.rmtree(aside, ignore_errors=True)
            _LOG.info(
                "pruned store entry",
                extra={"digest": entry.digest[:12], "dir": str(entry.path)},
            )
        staging = self.root / "staging"
        if staging.is_dir():
            for stale in staging.iterdir():
                if not _writer_alive(stale.name):
                    shutil.rmtree(stale, ignore_errors=True)
        return doomed

    # -- load --------------------------------------------------------------

    def _read(self, digest: str, span_name: str, project):
        """The one entry reader: ``project(meta, columnar, reports)`` on a
        hit, None on a miss.

        The projection runs inside the same ``except`` as the reads, so
        an entry whose rows fail re-validation is a miss too.  Truncated
        JSON raises ValueError, missing keys KeyError, malformed rows
        TypeError, and a corrupt binary, a format mismatch or a
        monotonicity violation a ReproError — each means "this entry is
        unusable, recompute".
        """
        entry = self.entry_dir(digest)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            _STORE_MISSES.inc()
            return None
        with span(span_name, digest=digest[:12]):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("store_format") != STORE_FORMAT:
                    raise DataError(
                        f"store format {meta.get('store_format')!r} "
                        f"(expected {STORE_FORMAT})"
                    )
                columnar = load_columnar_binary(entry / "columnar.bin")
                _BIN_LOADS.inc()
                reports_data = json.loads(
                    (entry / "reports.json").read_text(encoding="utf-8")
                )
                reports = {
                    name: [RoundReport.from_dict(r) for r in rows]
                    for name, rows in reports_data["reports"].items()
                }
                result = project(meta, columnar, reports)
            except (OSError, ValueError, KeyError, TypeError, AttributeError,
                    ReproError) as exc:
                _LOG.warning(
                    "unreadable store entry; treating as miss",
                    extra={"digest": digest[:12], "error": str(exc)},
                )
                _STORE_MISSES.inc()
                return None
        _STORE_HITS.inc()
        return result

    def load(
        self, config: ScenarioConfig, kind: str = "weekly"
    ) -> StoredCampaign | None:
        """Load the stored campaign for ``config``, or None on a miss."""
        digest = config_digest(config, kind)
        stored = self._read(
            digest,
            "engine.store.load",
            lambda meta, columnar, reports: StoredCampaign(
                digest=digest,
                kind=kind,
                repository=columnar.to_repository(),
                reports=reports,
            ),
        )
        if stored is not None:
            _LOG.info(
                "campaign store hit", extra={"digest": digest[:12], "kind": kind}
            )
        return stored

    def load_repository(
        self, config: ScenarioConfig, kind: str = "weekly"
    ) -> CentralRepository | None:
        """The stored measurement repository only — no reports, no world.

        The ``repro export`` path uses this: serialized DB in, CSVs out,
        without rebuilding the simulation world.
        """
        return self.load_repository_by_digest(config_digest(config, kind))

    def load_repository_by_digest(self, digest: str) -> CentralRepository | None:
        """Like :meth:`load_repository` but addressed by store digest."""
        return self._read(
            digest,
            "engine.store.load_repository",
            lambda meta, columnar, reports: columnar.to_repository(),
        )

    def load_columnar_entry(self, digest: str):
        """One entry's ``(meta, ColumnarRepository)`` — the serving path.

        The repository is sha256-verified and decodes lazily per table.
        Returns None on a miss or an unreadable entry.
        """
        return self._read(
            digest,
            "engine.store.load_columnar",
            lambda meta, columnar, reports: (meta, columnar),
        )

    # -- observer reports ----------------------------------------------------

    def observers_dir(self, digest: str) -> pathlib.Path:
        return self.entry_dir(digest) / "observers"

    def save_observer_reports(self, digest: str, reports: dict) -> pathlib.Path:
        """Persist observer reports next to ``columnar.bin``.

        ``reports`` maps observer name to
        :class:`~repro.observers.reports.ObserverReport`; each artifact is
        the report's canonical bytes, so the serving layer can return the
        file contents verbatim and still match a fresh recomputation
        byte-for-byte.  Each file is written under a temporary name and
        renamed into place, so a reader never sees a partial report.
        """
        directory = self.observers_dir(digest)
        with span("engine.store.save_observers", digest=digest[:12]):
            directory.mkdir(parents=True, exist_ok=True)
            for name in sorted(reports):
                temp = directory / f".{name}.{os.getpid()}.{secrets.token_hex(8)}"
                try:
                    temp.write_bytes(reports[name].canonical_bytes())
                    os.replace(temp, directory / f"{name}.json")
                except BaseException:
                    temp.unlink(missing_ok=True)
                    raise
        _LOG.info(
            "observer reports stored",
            extra={"digest": digest[:12], "n_reports": len(reports)},
        )
        return directory

    def load_observer_report(self, digest: str, name: str) -> bytes | None:
        """One persisted report's exact canonical bytes, or None."""
        path = self.observers_dir(digest) / f"{name}.json"
        try:
            return path.read_bytes()
        except OSError:
            return None

    def list_observer_reports(self, digest: str) -> list[str]:
        """Names of the persisted observer reports for one entry, sorted."""
        directory = self.observers_dir(digest)
        if not directory.is_dir():
            return []
        return sorted(p.stem for p in directory.glob("*.json"))

    # -- save --------------------------------------------------------------

    def _staging_path(self, digest: str) -> pathlib.Path:
        """A fresh ``staging/<digest>.<pid>.<token>`` path, not yet created."""
        token = f"{digest}.{os.getpid()}.{secrets.token_hex(8)}"
        return self.root / "staging" / token

    def _move_aside(self, digest: str, path: pathlib.Path) -> pathlib.Path | None:
        """Rename ``path`` into staging; None when it no longer exists."""
        aside = self._staging_path(digest)
        aside.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(path, aside)
        except FileNotFoundError:
            return None
        return aside

    def save(
        self,
        config: ScenarioConfig,
        repository: CentralRepository,
        reports: dict[str, list[RoundReport]],
        kind: str = "weekly",
    ) -> pathlib.Path:
        """Persist one campaign atomically; returns its entry directory."""
        digest = config_digest(config, kind)
        entry = self.entry_dir(digest)
        with span("engine.store.save", digest=digest[:12], kind=kind):
            staging = self._staging_path(digest)
            staging.mkdir(parents=True)
            try:
                write_columnar_binary(
                    staging / "columnar.bin",
                    ColumnarRepository.from_repository(repository),
                )
                (staging / "reports.json").write_text(
                    json.dumps(
                        {
                            "reports": {
                                name: [r.to_dict() for r in rows]
                                for name, rows in reports.items()
                            }
                        },
                        separators=(",", ":"),
                    ),
                    encoding="utf-8",
                )
                (staging / "meta.json").write_text(
                    json.dumps(
                        {
                            "store_format": STORE_FORMAT,
                            "database_format": SERIAL_FORMAT,
                            "digest": digest,
                            "kind": kind,
                            "seed": config.seed,
                            "repository_digest": repository.content_digest(),
                        },
                        indent=2,
                    ),
                    encoding="utf-8",
                )
                self._publish(digest, staging, entry)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
        _STORE_WRITES.inc()
        _LOG.info(
            "campaign stored",
            extra={"digest": digest[:12], "kind": kind, "dir": str(entry)},
        )
        return entry

    def _publish(
        self, digest: str, staging: pathlib.Path, entry: pathlib.Path
    ) -> None:
        """Rename a complete ``staging`` directory to ``entry``.

        A directory already at ``entry`` (an older entry, or one a
        concurrent writer just published) is renamed aside first and
        deleted once the new entry is in place.
        """
        entry.parent.mkdir(parents=True, exist_ok=True)
        displaced = []
        while True:
            try:
                os.rename(staging, entry)
                break
            except OSError as exc:
                if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
            aside = self._move_aside(digest, entry)
            if aside is not None:
                displaced.append(aside)
        for aside in displaced:
            shutil.rmtree(aside, ignore_errors=True)
