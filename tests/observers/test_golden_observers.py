"""Golden pin for the regression-bearing outputs: observer reports and Table 3.

The observer panel over the session campaign carries steady-trend
``p_value``s, and Table 3 counts sites removed for a steady trend, so
both depend on the last bit of the OLS kernel and the Student-t tail.
The fixture was generated with ``scipy.stats`` as the kernel and is the
oracle every later kernel must match byte-for-byte.
``REPRO_REGEN_GOLDEN=1`` regenerates it.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.data.columnar import ColumnarRepository
from repro.experiments import table3
from repro.observers import run_panel

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures" / "golden_observers"
DIGESTS = FIXTURE_DIR / "observer_digests.json"
TABLE3 = FIXTURE_DIR / "table3.txt"

CAMPAIGN_DIGEST = "golden"


@pytest.fixture(scope="module")
def panel(small_campaign):
    columnar = ColumnarRepository.from_repository(small_campaign.repository)
    return run_panel(columnar, campaign_digest=CAMPAIGN_DIGEST)


def _digests(panel) -> dict[str, str]:
    return {name: report.digest for name, report in sorted(panel.items())}


def _steady_trend_p_values(panel) -> list[float]:
    return [
        flag["p_value"]
        for report in panel.values()
        for flag in report.body["trends"]
        if flag["kind"] == "steady_trend"
    ]


class TestGoldenObservers:
    def test_observer_digests_match_golden(self, panel):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
            DIGESTS.write_text(
                json.dumps(_digests(panel), indent=2, sort_keys=True) + "\n"
            )
            pytest.skip("golden observer digests regenerated")
        assert DIGESTS.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert _digests(panel) == json.loads(DIGESTS.read_text())

    def test_pin_covers_steady_trend_p_values(self, panel):
        # The pin is only a kernel oracle if some report carries a
        # nonzero regression p-value.
        p_values = _steady_trend_p_values(panel)
        assert p_values
        assert any(p > 0.0 for p in p_values)

    def test_table3_matches_golden(self, small_data):
        rendered = table3.run(small_data).render() + "\n"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
            TABLE3.write_text(rendered)
            pytest.skip("golden Table 3 regenerated")
        assert TABLE3.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert rendered == TABLE3.read_text()
