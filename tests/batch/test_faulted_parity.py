"""Faulted rounds are pinned byte-for-byte by golden fixtures.

The fault-free rounds are covered by the pinned repository digests; the
faulted walk is the subtler half — fault *rows* are order-sensitive (DNS
failures interleave with download retries within a site) and server
fault decisions are prefetched in blocks.  This module pins it with two
10-seed golden fixtures, generated on the scalar reference plane that
earlier versions kept beside the batched one, plus a unit check that a
fault decision does not depend on the batch it is asked in.
``REPRO_REGEN_GOLDEN=1`` regenerates both fixtures from the current
code; a regenerated fixture is a changed contract and needs a stated
cause.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.faults import FaultPlan, fault_preset
from repro.net.addresses import AddressFamily

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures" / "golden_faults_batch"
FIXTURE = FIXTURE_DIR / "faulted_sweep.json"
DIGEST_FIXTURE = FIXTURE_DIR / "faulted_repository_digests.json"

SWEEP_SEEDS = tuple(range(100, 110))
SWEEP_ROUNDS = 3
#: the subset re-run with the NAT64/DNS64 axis on top of mild faults.
TRANSITION_SEEDS = (100, 104, 109)


def _faulted_config(seed: int):
    return dataclasses.replace(
        small_config(seed=seed, scale=0.4), faults=fault_preset("mild")
    )


def _faulted_transition_config(seed: int):
    cfg = _faulted_config(seed)
    return dataclasses.replace(
        cfg, dns64=dataclasses.replace(cfg.dns64, enabled=True)
    )


def _canonical_summary(result) -> dict:
    """Everything satellite 4 pins, in a stable JSON-ready shape.

    The faults tables are serialized row-for-row in observation order, so
    any reordering — not just a changed decision — breaks the digest.
    """
    repo = result.repository
    faults = {
        name: [
            [obs.site_id, obs.round_idx, obs.family.value, obs.kind]
            for obs in repo.database(name).faults
        ]
        for name in repo.vantage_names
    }
    n_failures = {
        name: [report.n_failures for report in reports]
        for name, reports in sorted(result.reports.items())
    }
    return {"faults": faults, "n_failures": n_failures}


def _digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_sweep() -> dict[str, str]:
    return {
        str(seed): _digest(
            _canonical_summary(
                run_campaign(
                    build_world(_faulted_config(seed)), n_rounds=SWEEP_ROUNDS
                )
            )
        )
        for seed in SWEEP_SEEDS
    }


class TestGoldenFaultedSweep:
    """Faults tables and per-round failure counts of the faulted sweep.

    Generated at commit a818c97 on the scalar reference plane.
    """

    def test_batched_sweep_matches_scalar_golden(self):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
            FIXTURE.write_text(
                json.dumps(_run_sweep(), indent=2, sort_keys=True) + "\n"
            )
            pytest.skip("golden fixture regenerated")
        assert FIXTURE.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert _run_sweep() == json.loads(FIXTURE.read_text())

    def test_sweep_actually_faults(self):
        result = run_campaign(
            build_world(_faulted_config(100)), n_rounds=SWEEP_ROUNDS
        )
        repo = result.repository
        assert (
            sum(len(repo.database(n).faults) for n in repo.vantage_names) > 0
        )


def _repository_digests() -> dict[str, str]:
    """``content_digest()`` of each sweep campaign (every table, every row)."""
    digests = {
        str(seed): run_campaign(
            build_world(_faulted_config(seed)), n_rounds=SWEEP_ROUNDS
        ).repository.content_digest()
        for seed in SWEEP_SEEDS
    }
    for seed in TRANSITION_SEEDS:
        digests[f"{seed}+transition"] = run_campaign(
            build_world(_faulted_transition_config(seed)),
            n_rounds=SWEEP_ROUNDS,
        ).repository.content_digest()
    return digests


class TestGoldenRepositoryDigests:
    """Full repository digests of the faulted sweep.

    The faulted-sweep fixture pins only the faults tables and per-round
    failure counts, so drift elsewhere in the faulted walk (a download
    row's timestamp, a path, a transition row) would slip past it.  This
    fixture pins ``content_digest()`` for seeds 100-109 (mild faults) and
    for seeds 100/104/109 with mild faults plus NAT64/DNS64.  It was
    generated at commit cc99a7a on the scalar reference plane, where the
    batched plane matched it.
    """

    def test_repository_digests_match_golden(self):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            DIGEST_FIXTURE.write_text(
                json.dumps(_repository_digests(), indent=2, sort_keys=True)
                + "\n"
            )
            pytest.skip("golden fixture regenerated")
        assert DIGEST_FIXTURE.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert _repository_digests() == json.loads(DIGEST_FIXTURE.read_text())


class TestFaultPlanBatches:
    """A decision depends on its coordinates, not on its batch."""

    def test_server_fault_batch_matches_scalar(self):
        plan = FaultPlan(fault_preset("mild"), master_seed=5)
        keys = [f"probe:{i}" for i in range(4)] + [
            f"loop:{i}" for i in range(12)
        ]
        for family in AddressFamily:
            for multiplier in (1.0, 2.5):
                batch = plan.server_fault_batch(
                    17, family, 1, keys, rate_multiplier=multiplier
                )
                assert batch == [
                    plan.server_fault(
                        17, family, 1, key, rate_multiplier=multiplier
                    )
                    for key in keys
                ]
