"""Record the program-seed pools and the reference outputs the benchmark
checks every invocation against.

Usage::

    python3 perfbench/record.py

Each workload family has its own pool: ``run_all`` (both ``run-all``
workloads), ``faulted`` and ``serve``.  The script runs the family's
command for program seeds ``1..CANDIDATES`` and keeps a seed as
eligible when:

* the command succeeds.  At some seeds the program refuses the
  small-config world with a ``ConfigError``, because there are too few
  vantage-capable ASes at the benchmark's scale;
* for ``run_all``, it prints ``H1 holds: True`` and ``H2 holds: True``.
  Both verdicts are statistics over a small world at scale 0.1, and at
  some seeds H2 reads False.

The pool is the first ``POOL`` eligible seeds whose output size (the
family's ``disk_bytes``) lies within ``BAND`` of the median over all
eligible seeds.  So every seed asks for about the same amount of work,
and a run's spread measures the machine and the program, not the seed.
``references.json`` lists every skipped seed with its reason.  Run the
script only when the program's outputs change on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import batch
import common
import serving

CANDIDATES = {"run_all": 60, "faulted": 40, "serve": 40}
POOL = 12
BAND = 0.04
#: candidate seeds recorded at once (the machine has two cores).
JOBS = 2


class Skip(Exception):
    """The program seed cannot join the pool; the message says why."""


def _run(ws: common.Workspace, label: str, argv: list[str]):
    inv = common.run_cli(ws, argv)
    if inv.returncode != 0:
        last = inv.stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        if last.startswith("repro.errors.ConfigError"):
            raise Skip(f"{label}: {last}")
        raise RuntimeError(f"{label} failed: {last}")
    return inv


def record_run_all(ws: common.Workspace, seed: int) -> tuple[dict, int]:
    store = ws.fresh(f"store-{seed}")
    inv = _run(ws, "run-all", batch.run_all_argv(seed, store))
    facts = batch.run_all_facts(inv.stdout, store)
    size = common.tree_bytes(store)
    shutil.rmtree(store)
    verdicts = facts.pop("h1"), facts.pop("h2")
    if not all(verdicts):
        raise Skip("run-all: H1 holds: {}, H2 holds: {}".format(*verdicts))
    return facts, size


def record_faulted(ws: common.Workspace, seed: int) -> tuple[dict, int]:
    out = ws.fresh(f"export-{seed}")
    inv = _run(ws, "faulted export", batch.faulted_argv(seed, out))
    facts = batch.faulted_facts(inv.stdout, out)
    size = common.tree_bytes(out)
    shutil.rmtree(out)
    return facts, size


def record_serve(ws: common.Workspace, seed: int) -> tuple[dict, int]:
    store, out = ws.fresh(f"serve-store-{seed}"), ws.fresh(f"serve-out-{seed}")
    inv = _run(ws, "serving-store export",
               serving.prepare_argv(seed, store, out))
    size = common.tree_bytes(store)
    shutil.rmtree(store)
    shutil.rmtree(out)
    return {"repository_digest": batch.export_digest(inv.stdout)}, size


RECORDERS = {
    "run_all": record_run_all,
    "faulted": record_faulted,
    "serve": record_serve,
}


def record_family(ws: common.Workspace, family: str) -> dict:
    def attempt(seed: int):
        try:
            return seed, RECORDERS[family](ws, seed), None
        except Skip as reason:
            return seed, None, str(reason)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        outcomes = list(pool.map(attempt, range(1, CANDIDATES[family] + 1)))
    eligible = {seed: rec for seed, rec, _ in outcomes if rec is not None}
    skipped = {str(seed): reason for seed, _, reason in outcomes if reason}
    middle = common.median(size for _, size in eligible.values())
    chosen, seeds, sizes = [], {}, {}
    for seed, (facts, size) in sorted(eligible.items()):
        if len(chosen) < POOL and abs(size / middle - 1.0) <= BAND:
            chosen.append(seed)
            seeds[str(seed)] = facts
            sizes[str(seed)] = size
        else:
            reason = ("pool full" if len(chosen) >= POOL else
                      f"{size} bytes, outside {BAND:.0%} of {middle:g}")
            skipped[str(seed)] = reason
    if len(chosen) < POOL:
        raise RuntimeError(f"{family}: only {len(chosen)} seeds in the band")
    print(f"{family}: pool {chosen}", file=sys.stderr)
    return {"median_bytes": middle, "pool": chosen, "seeds": seeds,
            "disk_bytes": sizes, "skipped": skipped}


def main() -> int:
    with common.Workspace() as ws:
        families = {family: record_family(ws, family) for family in RECORDERS}
    common.REFERENCES.write_text(
        json.dumps(
            {
                "scales": {"run_all": batch.RUN_ALL_SCALE,
                           "faulted": batch.FAULTED_SCALE,
                           "serve": serving.SERVE_SCALE},
                "band": BAND,
                "families": families,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
