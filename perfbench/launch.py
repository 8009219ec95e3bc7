"""Run the ``repro`` CLI the way its console script does, and report when
it was ready.

Usage::

    python perfbench/launch.py --ready FILE [--trace FILE] -- <repro args>

``--ready`` receives ``{"started": t0, "imported": t1}`` on the
``time.monotonic`` clock, written once ``import repro.cli`` returned.
With ``--trace`` the launcher first wraps each layer's entry point
(see ``spans.LAYERS``) and, when the command ends, writes the recorded
spans, call counts, the ``repro.obs`` metrics registry and the store
bytes read and written to that file.  Without it the program runs
unwrapped.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()
STARTED_PERF = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402


def _parse(argv: list[str]):
    if "--" not in argv:
        raise SystemExit("launch.py: missing '--' before the repro arguments")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--ready", required=True)
    parser.add_argument("--trace", default=None)
    return parser.parse_args(argv[:split]), argv[split + 1:]


def _tree_bytes(path: pathlib.Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class StoreBytes:
    """Bytes the campaign store wrote and the bytes of entries it read."""

    def __init__(self) -> None:
        self.written = 0
        self.read = 0
        self._depth = 0

    def install(self) -> None:
        from repro.engine.store import CampaignStore, config_digest

        def entry_of(store, method, args):
            if method == "load":
                config = args[0]
                kind = args[1] if len(args) > 1 else "weekly"
                return store.entry_dir(config_digest(config, kind))
            return store.entry_dir(args[0])

        def reading(method):
            original = getattr(CampaignStore, method)

            def wrapper(store, *args, **kwargs):
                self._depth += 1
                try:
                    result = original(store, *args, **kwargs)
                finally:
                    self._depth -= 1
                if result is not None and self._depth == 0:
                    self.read += _tree_bytes(entry_of(store, method, args))
                return result

            setattr(CampaignStore, method, wrapper)

        for method in ("load", "load_repository_by_digest",
                       "load_columnar_entry"):
            reading(method)

        original_save = CampaignStore.save

        def save(store, *args, **kwargs):
            before = _tree_bytes(store.root)
            try:
                return original_save(store, *args, **kwargs)
            finally:
                self.written += _tree_bytes(store.root) - before

        CampaignStore.save = save


def main(argv: list[str]) -> int:
    options, repro_argv = _parse(argv)
    recorder = store_bytes = None
    if options.trace is not None:
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        import spans

        recorder = spans.Recorder()
        index = recorder.open("import.cli")
    import repro.cli

    imported = time.monotonic()
    if recorder is not None:
        recorder.close(index)
        spans.install(recorder)
        store_bytes = StoreBytes()
        store_bytes.install()
    pathlib.Path(options.ready).write_text(
        json.dumps({"started": STARTED, "imported": imported}),
        encoding="utf-8",
    )
    try:
        return repro.cli.main(repro_argv)
    finally:
        if recorder is not None:
            from repro.obs import get_registry

            ended = time.perf_counter()
            pathlib.Path(options.trace).write_text(
                json.dumps(
                    {
                        "started": STARTED_PERF,
                        "ended": ended,
                        "spans": recorder.spans,
                        "calls": recorder.calls,
                        "metrics": get_registry().as_dict(),
                        "store_bytes_written": store_bytes.written,
                        "store_bytes_read": store_bytes.read,
                    }
                ),
                encoding="utf-8",
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
