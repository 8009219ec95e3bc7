"""Shared pieces of the benchmark: metric catalogue, process spawning,
the program-seed pool, reference outputs, and machine facts.

Everything here runs in the benchmark process.  The program under test
is only ever reached through a child process (the ``repro`` CLI via
``launch.py``) or over HTTP, so a number measured here is what a user
of the CLI or the server pays.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

#: the benchmark directory and the checkout root it sits in.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"
REFERENCES = BENCH_DIR / "references.json"
#: every temporary store and output directory lives under here, inside
#: the checkout, and is removed when the run ends.
SCRATCH = ROOT / ".perfbench-tmp"

#: fixed so that set and dict iteration order cannot vary between runs.
PYTHONHASHSEED = "0"
#: campaigns run on the serial backend: the process backend drops the
#: counters its workers raise, so a traced run there would under-report.
BACKEND = "serial"

# ---------------------------------------------------------------------------
# metric catalogue (BENCHMARK.json mirrors these; the self-tests check it)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: Timing bounds are wide because the reference machine is shared and
#: runs of one input still spread by several per cent after the speed
#: normalisation below.  ``disk_bytes`` is exact per seed, and the seed
#: pools (see record.py) hold its spread between seeds within 4 %.
#: Every workload must report every metric here, so the set holds only
#: figures that mean something distinct on each of them; the serve
#: latency and rate figures are per-layer metrics of the traced run.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    Metric("disk_bytes", "B", "lower", 0.15),
)

_COUNT = "count"
_SHARE = "ratio"
PER_LAYER = (
    Metric("import.cli_s", "s", "lower"),
    Metric("core.world.build_s", "s", "lower"),
    Metric("bgp.route_computations", _COUNT, "lower"),
    Metric("core.campaign.run_s", "s", "lower"),
    Metric("engine.merge_s", "s", "lower"),
    Metric("batch.plan.build_s", "s", "lower"),
    Metric("batch.plan.calls", _COUNT, "lower"),
    Metric("batch.execute.round_s", "s", "lower"),
    Metric("batch.execute.rounds", _COUNT, "lower"),
    Metric("batch.execute.faulted_rounds", _COUNT, "lower"),
    Metric("monitor.download.loops", _COUNT, "lower"),
    Metric("monitor.download.samples", _COUNT, "lower"),
    Metric("monitor.download.converged_share", _SHARE, "higher"),
    Metric("monitor.retries", _COUNT, "lower"),
    Metric("monitor.export.write_s", "s", "lower"),
    Metric("monitor.export.bytes", "B", "lower"),
    Metric("dns.queries", _COUNT, "lower"),
    Metric("dns.cache_hit_share", _SHARE, "higher"),
    Metric("dns.zone_walks", _COUNT, "lower"),
    Metric("dns.dns64.synthesized", _COUNT, "lower"),
    Metric("faults.injected", _COUNT, "lower"),
    Metric("engine.store.save_s", "s", "lower"),
    Metric("engine.store.load_s", "s", "lower"),
    Metric("engine.store.bytes_written", "B", "lower"),
    Metric("engine.store.bytes_read", "B", "lower"),
    Metric("data.columnar.encode_s", "s", "lower"),
    Metric("data.columnar.decode_s", "s", "lower"),
    Metric("data.query.calls", _COUNT, "lower"),
    Metric("data.query.rows_scanned", _COUNT, "lower"),
    Metric("data.query.index_hit_share", _SHARE, "higher"),
    Metric("data.query.run_s", "s", "lower"),
    Metric("analysis.screen_s", "s", "lower"),
    Metric("analysis.classify_s", "s", "lower"),
    Metric("analysis.evaluate_s", "s", "lower"),
    Metric("stats.linear_regression_calls", _COUNT, "lower"),
    Metric("stats.linear_regression_s", "s", "lower"),
    Metric("experiments.render_s", "s", "lower"),
    Metric("observers.run_s", "s", "lower"),
    Metric("observers.reports", _COUNT, "lower"),
    Metric("data.serve.cache_hit_share", _SHARE, "higher"),
    Metric("data.serve.hit_p50_ms", "ms", "lower"),
    Metric("data.serve.miss_p50_ms", "ms", "lower"),
    Metric("data.serve.p50_ms", "ms", "lower"),
    Metric("data.serve.p99_ms", "ms", "lower"),
    Metric("data.serve.max_rps", "1/s", "higher"),
    Metric("data.serve.campaign_loads", _COUNT, "lower"),
    Metric("bench.span_coverage", _SHARE, "higher"),
    Metric("bench.tracing_overhead_s", "s", "lower"),
    Metric("bench.serve_late_ms", "ms", "lower"),
)


def check_catalogue(end_to_end=END_TO_END, per_layer=PER_LAYER) -> None:
    """Raise ValueError when a metric list breaks the naming contract."""
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        raise ValueError(f"{len(end_to_end)} end-to-end metrics")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        raise ValueError(f"{len(per_layer)} per-layer metrics")
    seen: set[str] = set()
    for metric in (*end_to_end, *per_layer):
        if not NAME_RE.match(metric.name):
            raise ValueError(f"bad metric name {metric.name!r}")
        if not UNIT_RE.match(metric.unit):
            raise ValueError(f"bad unit {metric.unit!r} for {metric.name}")
        if metric.better not in ("lower", "higher"):
            raise ValueError(f"bad direction for {metric.name}")
        if metric.name in seen:
            raise ValueError(f"duplicate metric name {metric.name!r}")
        seen.add(metric.name)
    if not any(m.name == "setup_s" and m.unit == "s" for m in end_to_end):
        raise ValueError("setup_s (unit s) is required")
    for metric in end_to_end:
        if metric.bound is None or not 0 < metric.bound <= 0.25:
            raise ValueError(f"bound of {metric.name} must be in (0, 0.25]")


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return failed / attempted


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` (0..100) of sorted values."""
    if not ordered:
        raise ValueError("percentile of no values")
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_quantile(n: int) -> float:
    """The highest percentile, at most 99, with 10 of ``n`` samples past
    it; with fewer than 20 samples that is the median."""
    if n < 1:
        raise ValueError("no samples")
    q = 100.0 * (1.0 - 10 / n)
    return max(50.0, min(99.0, math.floor(q * 10.0) / 10.0))


# ---------------------------------------------------------------------------
# machine speed
#
# The reference machine is shared, and its speed changes by up to 2x
# within minutes, and flips within seconds: one unchanged run-all input
# took 10.7 s and, four minutes later, 5.3 s.  Raw wall times of runs
# made minutes apart are therefore not comparable.  The benchmark times
# a fixed pure-Python unit of work on the CPU the program runs on, and
# reports CPU-bound timings at the reference speed: measured seconds
# times (reference unit time / measured unit time) ** SPEED_EXPONENT.
#
# For a batch invocation the unit is timed every 50 ms while the child
# runs, pinned to the same CPU: samples taken seconds before or after
# an invocation barely track it (r = 0.48 to 0.58 against log wall time
# over 58 warm run-all invocations), samples taken during it do
# (r = 0.945).  Each sample takes 0.5 to 1 ms of that CPU, 1 to 2 %;
# the child, being on the same CPU, cannot run beside a sample, so it
# cannot slow one except by what it leaves in the caches.

#: the calibration unit's time on the reference machine.
UNIT_REFERENCE_S = 0.0005
#: The unit slows more than the program when the machine does.  Within
#: one machine phase the slope of log program time on log unit time was
#: 0.57 over 58 warm run-all invocations and 0.46 over 32 faulted
#: exports; between a fast and a slow phase, cold run-all gave 0.82 and
#: 0.93.  A unit that tracked the program exactly would give 1.  The
#: power is set for the phase changes, which move whole runs, and
#: leaves some spread within a phase, which medians absorb.
SPEED_EXPONENT = 0.8
#: seconds between calibration samples while a child runs.
PROBE_INTERVAL_S = 0.05


def _unit() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class SpeedProbe:
    """Timestamped samples of the calibration unit's time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: ``time.monotonic()`` at the start of each sample
        self.times: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        self.times.append(time.monotonic())
        started = time.perf_counter()
        _unit()
        self.samples.append(time.perf_counter() - started)

    def maybe_sample(self) -> None:
        """Sample when the probe interval has passed since the last one."""
        now = time.monotonic()
        if now >= self._next:
            self._next = now + PROBE_INTERVAL_S
            self.sample()

    def scale(self, since: float | None = None,
              until: float | None = None) -> float:
        """Multiply a measured time by this to state it at reference
        speed; from the samples taken between ``since`` and ``until``
        when any were, else from all."""
        kept = [s for s, t in zip(self.samples, self.times)
                if (since is None or t >= since)
                and (until is None or t <= until)]
        return scale_of(kept or self.samples)


#: the sampling loop of ``ProbeProcess``: one ``monotonic sample`` line
#: per interval, until terminated.
_PROBE_LOOP = """
import sys, time
sys.path.insert(0, sys.argv[1])
from common import _unit
interval = float(sys.argv[2])
while True:
    at = time.monotonic()
    started = time.perf_counter()
    _unit()
    print(at, time.perf_counter() - started, flush=True)
    time.sleep(max(0.0, at + interval - time.monotonic()))
"""


class ProbeProcess:
    """The calibration unit timed every ``interval`` seconds by a
    process of its own, pinned to ``cpu``, while work runs there that
    this process cannot sample beside (a server, or this process's own
    load generator)."""

    def __init__(self, ws: "Workspace", cpu: int,
                 interval: float = PROBE_INTERVAL_S) -> None:
        self.path = ws.fresh(f"probe-{cpu}")
        with open(self.path, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _PROBE_LOOP, str(BENCH_DIR),
                 str(interval)],
                stdout=out, stdin=subprocess.DEVNULL,
            )
        os.sched_setaffinity(self.proc.pid, {cpu})

    def stop(self) -> SpeedProbe:
        """End the sampling; its samples."""
        if self.proc.returncode is None:
            self.proc.terminate()
            self.proc.wait()
        probe = SpeedProbe()
        for line in self.path.read_text(encoding="utf-8").splitlines():
            at, taken = line.split()
            probe.times.append(float(at))
            probe.samples.append(float(taken))
        return probe


def scale_of(samples: list[float]) -> float:
    """The reference-speed factor of a set of calibration samples."""
    return (UNIT_REFERENCE_S / median(samples)) ** SPEED_EXPONENT


#: the CPUs this process may use, as it started.
CPUS = sorted(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Pin this process, and so every process it spawns from now on, to
    ``cpu``.

    The reference machine's vCPUs do not run at one speed: at times one
    runs the calibration unit in 0.5 ms and the other in 1.0 ms.  With
    each process pinned, and the probe run on the CPU whose work it
    states at reference speed, no figure depends on where the scheduler
    happened to place a process."""
    os.sched_setaffinity(0, {cpu})


# ---------------------------------------------------------------------------
# program seeds and recorded references


def load_references(scales: dict[str, float]) -> dict:
    """The recorded pool and outputs; refuses ones recorded at other scales."""
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if references["scales"] != scales:
        raise ValueError(
            f"references.json was recorded at scales {references['scales']}, "
            f"the workloads run at {scales}: rerun perfbench/record.py"
        )
    return references


def program_seed(bench_seed: int, pool: list[int]) -> int:
    """The program seed a benchmark seed selects from a recorded pool."""
    return int(pool[bench_seed % len(pool)])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: pathlib.Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def tree_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# spawning the program


def program_env(tmp: pathlib.Path) -> dict[str, str]:
    """The child environment: the checkout's sources, fixed hashing, no
    inherited ``REPRO_*`` settings, temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env["TMPDIR"] = str(tmp)
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class Invocation:
    """One finished CLI process."""

    returncode: int
    #: as measured, in seconds
    wall_s: float
    setup_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    #: factors that state the wall and the set-up time at reference
    #: speed, from samples taken while the child ran (until it was set
    #: up, for the second)
    scale: float
    setup_scale: float


class Workspace:
    """Temporary directories for one benchmark run, inside the checkout."""

    def __init__(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.tmp = self.root / "tmp"
        self.tmp.mkdir()
        self._n = itertools.count(1)

    def fresh(self, label: str) -> pathlib.Path:
        """A new path that does not exist yet (safe across threads)."""
        return self.root / f"{label}-{next(self._n)}"

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def launcher_cmd(ready: pathlib.Path, argv: list[str], trace=None) -> list[str]:
    cmd = [sys.executable, str(LAUNCHER), "--ready", str(ready)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    return cmd + ["--", *argv]


def read_ready(path: pathlib.Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(
    ws: Workspace, argv: list[str], trace: pathlib.Path | None = None,
    timeout: float = 170.0,
) -> Invocation:
    """Spawn the ``repro`` CLI through the launcher and wait for it.

    Wall time runs from just before the spawn to the reaped exit; set-up
    time from the spawn to the moment ``import repro.cli`` finished in
    the child; peak RSS is the child's own high-water mark.  The
    machine speed is sampled on this process's CPU while the child runs;
    the child inherits that CPU.
    """
    ready = ws.fresh("ready")
    out_path, err_path = ws.fresh("stdout"), ws.fresh("stderr")
    probe = SpeedProbe()
    probe.sample()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            launcher_cmd(ready, argv, trace),
            cwd=ROOT, env=program_env(ws.tmp), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        try:
            _, status, usage = wait4(proc, started + timeout, probe)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        ended = time.monotonic()
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    setup, imported = math.nan, None
    if ready.exists():
        imported = read_ready(ready)["imported"]
        setup = imported - started
        ready.unlink()
    return Invocation(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=ended - started,
        setup_s=setup,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
        scale=probe.scale(),
        setup_scale=probe.scale(until=imported),
    )


def wait4(proc: subprocess.Popen, deadline: float,
          probe: SpeedProbe | None = None):
    """``os.wait4`` with a deadline; marks ``proc`` reaped.  Samples
    ``probe`` while it waits."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return pid, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"pid {proc.pid} ran past its deadline")
        if probe is not None:
            probe.maybe_sample()
        time.sleep(0.002)


# ---------------------------------------------------------------------------
# machine facts recorded with every result


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "backend": BACKEND,
    }


def _commit() -> str:
    """The checkout's commit: from git when present, else ``unknown``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
