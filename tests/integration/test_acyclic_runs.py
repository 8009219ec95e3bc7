"""Batch commands leave no cyclic garbage behind.

``repro.cli.main`` runs every bounded command with the automatic
collector disabled, which is only safe while the program's object graphs
are freed by reference counting.  This runs the three batch shapes a user
pays for (cold ``run-all``, warm ``run-all`` and a faulted, transition-on
``export``) with the collector off and ``gc.DEBUG_SAVEALL`` on, then
requires that a collection finds no object of any ``repro`` type.
"""

from __future__ import annotations

import gc

from repro.cli import main
from repro.experiments import scenario
from repro.obs import metrics


def _repro_types(objects) -> set[str]:
    names = set()
    for obj in objects:
        module = type(obj).__module__ or ""
        if module == "repro" or module.startswith("repro."):
            names.add(f"{module}.{type(obj).__qualname__}")
    return names


def test_batch_commands_free_everything_by_refcount(tmp_path, capsys):
    store = str(tmp_path / "store")
    commands = (
        ["run-all", "--scale", "0.05", "--seed", "2", "--cache-dir", store],
        ["run-all", "--scale", "0.05", "--seed", "2", "--cache-dir", store],
        [
            "export", "--scale", "0.05", "--seed", "11", "--faults", "mild",
            "--transition", "--no-cache", "--out", str(tmp_path / "export"),
        ],
    )
    store_before = scenario._STORE, scenario._STORE_CONFIGURED
    memo_before = set(scenario._DATA_CACHE), set(scenario._W6D_CACHE)
    was_enabled, debug_before = gc.isenabled(), gc.get_debug()
    hits = metrics.counter("engine.store.hits")
    hits_at = []
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in commands:
            hits_at.append(hits.value)
            assert main(argv) == 0
            # Drop what this command memoised, so its data must die too
            # and the warm run really reads the store.
            for cache, keep in zip(
                (scenario._DATA_CACHE, scenario._W6D_CACHE), memo_before
            ):
                for config in set(cache) - keep:
                    del cache[config]
        gc.collect()
        leaked = _repro_types(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug_before)
        if was_enabled:
            gc.enable()
        scenario._STORE, scenario._STORE_CONFIGURED = store_before
    capsys.readouterr()
    assert hits_at[2] > hits_at[1]  # the second run-all read the store
    assert leaked == set()
