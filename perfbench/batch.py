"""The three batch workloads: each one spawns the ``repro`` CLI.

* ``run_all_cold`` — ``repro run-all`` into an empty store: world build,
  both campaigns, the store write, analysis and all 18 tables.
* ``run_all_warm`` — the same command against a store filled in an
  untimed step: store read, analysis and tables only.
* ``campaign_faulted`` — ``repro export --faults mild --transition
  --no-cache``: the per-site faulted walk, retries, DNS64 synthesis,
  NAT64 paths and the CSV export; no store, no analysis.

Every invocation gets fresh directories and is checked against the
reference outputs recorded for its program seed.
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import time

import common
import layers

RUN_ALL_SCALE = 0.1
FAULTED_SCALE = 0.1
#: a run always makes at least this many timed invocations, so that its
#: figures are medians even when one invocation outlasts ``--seconds``.
MIN_INVOCATIONS = 3


def run_all_argv(seed: int, store: pathlib.Path) -> list[str]:
    return ["run-all", "--scale", str(RUN_ALL_SCALE), "--seed", str(seed),
            "--cache-dir", str(store)]


def faulted_argv(seed: int, out: pathlib.Path) -> list[str]:
    return ["export", "--out", str(out), "--scale", str(FAULTED_SCALE),
            "--seed", str(seed), "--faults", "mild", "--transition",
            "--no-cache"]


def store_entries(store: pathlib.Path) -> dict[str, str]:
    """``kind -> repository digest`` of every entry in a store."""
    if str(common.SRC) not in sys.path:
        sys.path.insert(0, str(common.SRC))
    from repro.engine.store import CampaignStore

    return {e.kind: e.repository_digest for e in CampaignStore(store).entries()}


def run_all_facts(stdout: bytes, store: pathlib.Path) -> dict:
    """What a run-all invocation produced, in the references' shape."""
    text = stdout.decode("utf-8", "replace")
    return {
        "report_sha256": common.sha256_bytes(stdout),
        "h1": "# H1 holds: True" in text.splitlines(),
        "h2": "# H2 holds: True" in text.splitlines(),
        "repositories": store_entries(store),
    }


def export_digest(stdout: bytes) -> str | None:
    for line in stdout.decode("utf-8", "replace").splitlines():
        if line.startswith("repository digest: "):
            return line.split(": ", 1)[1].strip()
    return None


def faulted_facts(stdout: bytes, out: pathlib.Path) -> dict:
    return {
        "repository_digest": export_digest(stdout),
        "export_sha256": common.tree_digest(out) if out.exists() else None,
    }


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)


def compare(label: str, got: dict, want: dict) -> list[str]:
    """One message per key whose value differs from the reference."""
    return [
        f"{label}: {key} is {got.get(key)!r}, reference {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


def check_invocation(label: str, inv: common.Invocation) -> list[str]:
    if inv.returncode != 0:
        tail = inv.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        return [f"{label}: exit code {inv.returncode}: {' | '.join(tail)}"]
    return []


class BatchWorkload:
    """Shared loop: untimed preparation, then invocations for the window."""

    name = ""

    def __init__(self, ws: common.Workspace, seed: int, refs: dict) -> None:
        self.ws = ws
        self.seed = seed
        self.tally = Tally()
        self.disk_bytes: list[int] = []
        #: bytes of the last CSV export (``monitor.export.bytes``).
        self.export_bytes = 0

    def prepare(self) -> None:
        """Untimed set-up before the first timed invocation."""

    def invoke(self, trace: pathlib.Path | None = None) -> common.Invocation:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        self.prepare()
        runs: list[common.Invocation] = []
        deadline = time.monotonic() + seconds
        while len(runs) < MIN_INVOCATIONS or time.monotonic() < deadline:
            runs.append(self.invoke())
        # times at reference speed (see common.SpeedProbe)
        walls = [r.wall_s * r.scale for r in runs]
        values = {
            "wall_s": common.median(walls),
            "setup_s": common.median(r.setup_s * r.setup_scale for r in runs),
            "peak_rss_mb": common.median(r.maxrss_mb for r in runs),
            "disk_bytes": float(common.median(self.disk_bytes)),
        }
        info = {
            "invocations": len(runs),
            "measured_wall_s": [round(r.wall_s, 4) for r in runs],
            "speed_scale": [round(r.scale, 4) for r in runs],
        }
        named = ([("store_bytes", values["disk_bytes"], "B")]
                 if self.name == "run_all_cold" else [])
        return {"values": values, "info": info, "named": named}

    def traced(self, seconds: float) -> dict:
        """One untraced and one traced invocation, however long they
        take; per-layer figures from the traced one."""
        self.prepare()
        plain = self.invoke()
        trace_file = self.ws.fresh("trace")
        traced = self.invoke(trace=trace_file)
        if not trace_file.exists():
            self.tally.errors.append(f"{self.name}: traced run wrote no trace")
            return {"values": layers.empty(), "info": {}}
        values = layers.at_speed(layers.from_trace(trace_file), traced.scale)
        values["bench.tracing_overhead_s"] = (
            traced.wall_s * traced.scale - plain.wall_s * plain.scale)
        values["monitor.export.bytes"] = float(self.export_bytes)
        return {"values": values, "info": {"untraced_wall_s": plain.wall_s,
                                           "traced_wall_s": traced.wall_s}}


class RunAll(BatchWorkload):
    """``repro run-all``; cold when ``warm`` is false."""

    def __init__(self, ws, seed, refs, warm: bool) -> None:
        super().__init__(ws, seed, refs)
        self.warm = warm
        self.name = "run_all_warm" if warm else "run_all_cold"
        self.reference = refs
        self.prepared: pathlib.Path | None = None
        self.cold_report: bytes | None = None

    def prepare(self) -> None:
        if not self.warm or self.prepared is not None:
            return
        store = self.ws.fresh("warm-store")
        inv = common.run_cli(self.ws, run_all_argv(self.seed, store))
        problems = check_invocation("warm-store preparation", inv)
        if not problems:
            problems = self._check_output("warm-store preparation", inv, store)
        if problems:
            raise RuntimeError("; ".join(problems))
        self.prepared = store
        self.cold_report = inv.stdout

    def _check_output(self, label, inv, store) -> list[str]:
        facts = run_all_facts(inv.stdout, store)
        problems = compare(label, facts, {"h1": True, "h2": True})
        problems += compare(label, facts, self.reference)
        if self.cold_report is not None and inv.stdout != self.cold_report:
            problems.append(f"{label}: warm report differs from the cold one")
        return problems

    def invoke(self, trace=None) -> common.Invocation:
        store = self.ws.fresh("store")
        if self.warm:
            shutil.copytree(self.prepared, store)
        inv = common.run_cli(self.ws, run_all_argv(self.seed, store), trace)
        label = f"{self.name} invocation {self.tally.attempted + 1}"
        problems = check_invocation(label, inv)
        if not problems:
            problems = self._check_output(label, inv, store)
        self.tally.record(problems)
        self.disk_bytes.append(common.tree_bytes(store))
        shutil.rmtree(store, ignore_errors=True)
        return inv


class Faulted(BatchWorkload):
    """``repro export --faults mild --transition --no-cache``."""

    name = "campaign_faulted"

    def __init__(self, ws, seed, refs) -> None:
        super().__init__(ws, seed, refs)
        self.reference = refs

    def invoke(self, trace=None) -> common.Invocation:
        out = self.ws.fresh("export")
        inv = common.run_cli(self.ws, faulted_argv(self.seed, out), trace)
        label = f"{self.name} invocation {self.tally.attempted + 1}"
        problems = check_invocation(label, inv)
        if not problems:
            problems = compare(label, faulted_facts(inv.stdout, out),
                               self.reference)
        self.tally.record(problems)
        size = common.tree_bytes(out) if out.exists() else 0
        self.disk_bytes.append(size)
        self.export_bytes = size
        shutil.rmtree(out, ignore_errors=True)
        return inv
