"""Monitoring vantage points (the paper's Table 1).

A vantage point is a dual-stack host we control, attached to one AS of
the synthetic Internet.  Its attributes mirror Table 1: when monitoring
started, whether AS_PATH data is available from a nearby router, whether
the location is white-listed by Google, and whether it is an academic or
commercial network.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class VantageKind(Enum):
    """Academic or commercial network, as in Table 1's last column."""

    ACADEMIC = "Acad."
    COMMERCIAL = "Comml."

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class VantagePoint:
    """One monitoring location."""

    name: str
    location: str
    asn: int
    #: first campaign round this vantage point participates in.
    start_round: int
    #: whether a nearby router's BGP table (AS_PATH) is available.
    as_path_available: bool
    white_listed: bool
    kind: VantageKind
    #: whether Penn-style external site inputs are fed to this monitor.
    external_inputs: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("vantage points need a name")
        if self.start_round < 0:
            raise ValueError("start_round must be >= 0")
        if self.asn <= 0:
            raise ValueError("vantage ASN must be positive")

    def active_at(self, round_idx: int) -> bool:
        return round_idx >= self.start_round

    def to_dict(self) -> dict:
        """JSON-ready form (the campaign store and content digests)."""
        return {
            "name": self.name,
            "location": self.location,
            "asn": self.asn,
            "start_round": self.start_round,
            "as_path_available": self.as_path_available,
            "white_listed": self.white_listed,
            "kind": self.kind.name,
            "external_inputs": self.external_inputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VantagePoint":
        """Rebuild a vantage point from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            location=data["location"],
            asn=data["asn"],
            start_round=data["start_round"],
            as_path_available=data["as_path_available"],
            white_listed=data["white_listed"],
            kind=VantageKind[data["kind"]],
            external_inputs=data["external_inputs"],
        )

    def table1_row(self) -> tuple[str, str, str, str, str]:
        """The vantage point formatted as a Table 1 row."""
        return (
            f"{self.name} ({self.location})",
            f"round {self.start_round}",
            "Y" if self.as_path_available else "N",
            "Y" if self.white_listed else "N",
            str(self.kind),
        )
