"""Round execution: how :meth:`MonitoringTool.run_round` measures its sites.

A fault-free round is split into a *plan* step (:mod:`.plan`) that
enumerates the whole site batch — DNS answer pairs (:mod:`.dnsplan`),
sessions, page-identity verdicts — without touching the shared RNG, and
an *execute* step (:mod:`.execute`) that walks the dispatch schedule,
consuming bulk draws (:mod:`.sampling`) and materializing observation
rows in columnar order.  A round on a world with a fault plan is walked
site by site instead, since injected failures decide each site's fate
as it goes.  Both walks advance the per-vantage RNG stream in the same
order, draw for draw, so the pinned content digests and serial-vs-
process parity hold.
"""

from __future__ import annotations

from .sampling import gauss_block, uniform_block

__all__ = ["gauss_block", "uniform_block"]
