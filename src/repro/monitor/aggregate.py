"""The central repository.

"A common repository at Penn aggregates the measurement data from the
different vantage points."  :class:`CentralRepository` is that box: it
holds every vantage point's database and answers the cross-vantage
queries the analysis needs (which vantage points have AS_PATH data, which
sites are common, per-AS categories from several viewpoints).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import MonitorError
from .database import MeasurementDatabase
from .vantage import VantagePoint


@dataclass
class CentralRepository:
    """Aggregated measurement data across vantage points."""

    _vantages: dict[str, VantagePoint] = field(default_factory=dict)
    _databases: dict[str, MeasurementDatabase] = field(default_factory=dict)

    def add(self, vantage: VantagePoint, database: MeasurementDatabase) -> None:
        if vantage.name in self._vantages:
            raise MonitorError(f"vantage {vantage.name!r} already registered")
        if database.vantage_name != vantage.name:
            raise MonitorError(
                f"database belongs to {database.vantage_name!r}, "
                f"not {vantage.name!r}"
            )
        self._vantages[vantage.name] = vantage
        self._databases[vantage.name] = database

    @property
    def vantage_names(self) -> list[str]:
        return list(self._vantages)

    def vantage(self, name: str) -> VantagePoint:
        if name not in self._vantages:
            raise MonitorError(f"unknown vantage {name!r}")
        return self._vantages[name]

    def database(self, name: str) -> MeasurementDatabase:
        if name not in self._databases:
            raise MonitorError(f"unknown vantage {name!r}")
        return self._databases[name]

    def analysis_vantages(self) -> list[VantagePoint]:
        """Vantage points usable for path analysis (AS_PATH available).

        The paper restricts the H1/H2 analysis to vantage points with a
        "Y" in Table 1's AS PATH column.
        """
        return [v for v in self._vantages.values() if v.as_path_available]

    def items(self) -> list[tuple[VantagePoint, MeasurementDatabase]]:
        return [
            (self._vantages[name], self._databases[name])
            for name in self._vantages
        ]

    def analysis_items(self) -> list[tuple[VantagePoint, MeasurementDatabase]]:
        return [
            (vantage, self._databases[vantage.name])
            for vantage in self.analysis_vantages()
        ]

    def common_dual_stack_sites(self) -> set[int]:
        """Sites measured dual-stack from every analysis vantage point.

        Runs on the columnar query core (one group-aggregate over each
        vantage's downloads table) — lazily imported because
        ``repro.data`` imports this module.
        """
        from ..data.columnar import columnar_view
        from ..data.query import dual_stack_sites

        items = self.analysis_items()
        if not items:
            return set()
        common = set(dual_stack_sites(columnar_view(items[0][1])))
        for _, db in items[1:]:
            common &= set(dual_stack_sites(columnar_view(db)))
        return common

    def __len__(self) -> int:
        return len(self._vantages)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form: vantage roster plus every database."""
        return {
            "vantages": [v.to_dict() for v in self._vantages.values()],
            "databases": {
                name: db.to_dict() for name, db in self._databases.items()
            },
        }

    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON form of every table.

        Two repositories holding bit-identical measurement data produce
        the same digest regardless of which execution backend (or
        process) produced them — the engine's equivalence tests and the
        CI serial-vs-process gate compare exactly this value.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
