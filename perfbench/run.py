"""The repository benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` makes a separate traced run and reports the per-layer metrics.  The
human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import common

#: workload -> the family whose seed pool and references it uses.
WORKLOADS = {
    "run_all_cold": "run_all",
    "run_all_warm": "run_all",
    "campaign_faulted": "faulted",
    "serve_mixed": "serve",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _build(name: str, ws: common.Workspace, seed: int, refs: dict,
           bench_seed: int):
    if name == "serve_mixed":
        from serving import ServeMixed

        return ServeMixed(ws, seed, refs, bench_seed)
    from batch import Faulted, RunAll

    if name == "campaign_faulted":
        return Faulted(ws, seed, refs)
    return RunAll(ws, seed, refs, warm=name == "run_all_warm")


def measure(args: argparse.Namespace) -> tuple[dict, object, dict]:
    from batch import FAULTED_SCALE, RUN_ALL_SCALE
    from serving import SERVE_SCALE

    references = common.load_references({
        "faulted": FAULTED_SCALE, "run_all": RUN_ALL_SCALE,
        "serve": SERVE_SCALE,
    })
    family = references["families"][WORKLOADS[args.workload]]
    seed = common.program_seed(args.seed, family["pool"])
    refs = family["seeds"][str(seed)]
    with common.Workspace() as ws:
        workload = _build(args.workload, ws, seed, refs, args.seed)
        run = workload.traced if args.trace else workload.measure
        result = run(args.seconds)
    return result, workload.tally, {"program_seed": seed}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    # the program's processes run on the first CPU (serve's load
    # generator moves to the second; see serving.py)
    common.pin(common.CPUS[0])
    started = time.monotonic()
    result, tally, seeds = measure(args)
    catalogue = common.PER_LAYER if args.trace else common.END_TO_END
    values = result["values"]
    missing = [m.name for m in catalogue if m.name not in values]
    bad = [m.name for m in catalogue
           if m.name in values and not math.isfinite(values[m.name])]
    errors = list(tally.errors)
    if missing:
        errors.append(f"metrics not measured: {missing}")
    if bad:
        errors.append(f"metrics not finite: {bad}")
    correct = not errors and tally.attempted >= 1

    facts = {
        "workload": args.workload,
        "bench_seed": args.seed,
        **seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**common.machine(), "program_cpu": common.CPUS[0]},
        "elapsed_s": round(time.monotonic() - started, 3),
        **result["info"],
    }
    print(f"# {json.dumps(facts, sort_keys=True)}")
    for error in errors[:20]:
        print(f"# error: {error}")
    share = common.failed_share(tally.attempted, tally.failed) if (
        tally.attempted) else 1.0
    print(f"{'failed_share':34s} {share:14.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    # figures the benchmark's specification names that the bounded set
    # carries under another name or not at all (see README.md)
    for name, value, unit in result.get("named", ()):
        print(f"{name:34s} {value:14.6g} {unit}")
    for metric in catalogue:
        value = values.get(metric.name, math.nan)
        print(f"{metric.name:34s} {value:14.6g} {metric.unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            metric.name: {"value": values.get(metric.name, 0.0),
                          "unit": metric.unit}
            for metric in catalogue
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
