"""Print what runners leave behind, and the bytes one run record, and one catalog, retain.

First 15 runners, each built, run over the toy dataset of tests/helpers.py
with the scripted backend, and dropped unclosed in turn, as a benchmark's
set-ups are; the peak RSS and the model-call threads alive after them
show a per-runner leak as a jump.  Then the toy dataset runs through
run_benchmark, the records are freed, and tracemalloc counts the bytes that
went with them; then the toy database is introspected, and the bytes that
go with the catalog when it is freed are counted.  Run it from the root of
a checkout:

    PYTHONPATH=src:tests python tests/record_footprint.py
"""
from __future__ import annotations

import gc
import resource
import tempfile
import threading
import tracemalloc
from pathlib import Path
from typing import Callable

from ensql.catalog import introspect
from ensql.config import PipelineConfig
from ensql.harness import PipelineRunner, load_dataset, run_benchmark

from helpers import ScriptedBackend, ToyScript, write_toy_dataset

# each toy question runs this many times, so a record's share of the
# count outweighs tracemalloc's own bookkeeping
REPEATS = 20
# runners built and dropped in turn
RUNNERS = 15


def _freed(make: Callable[[], object]) -> int:
    """The traced bytes freed with what make() returns."""
    tracemalloc.start()
    try:
        made = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del made
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def runners_in_turn() -> tuple[int, int]:
    """(peak RSS in MB, model-call threads alive) after RUNNERS runners ran in turn."""
    with tempfile.TemporaryDirectory() as directory:
        items = load_dataset(write_toy_dataset(Path(directory)))
        for _ in range(RUNNERS):
            runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
            for item in items:
                runner.run_item(item)
            del runner
            gc.collect()
    calls = sum(thread.name.startswith("ensql-call") for thread in threading.enumerate())
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, calls


def footprint() -> tuple[float, int, int]:
    """(bytes per toy record, toy records, bytes of the toy catalog)."""
    with tempfile.TemporaryDirectory() as directory:
        items = load_dataset(write_toy_dataset(Path(directory))) * REPEATS
        # run_benchmark gives one record per item
        freed = _freed(lambda: run_benchmark(
            PipelineConfig.default(), items, ScriptedBackend(ToyScript()),
            record_timing=False,
        )[0])
        catalog_bytes = _freed(lambda: introspect(items[0].db_path))
    return freed / len(items), len(items), catalog_bytes


if __name__ == "__main__":
    # first, before tracemalloc's bookkeeping raises the peak
    peak_mb, call_threads = runners_in_turn()
    print(f"{peak_mb} MB peak RSS and {call_threads} model-call threads after "
          f"{RUNNERS} runners ran the toy dataset in turn")
    per_record, count, catalog_bytes = footprint()
    print(f"{per_record:.0f} bytes retained per record ({count} toy records)")
    print(f"{catalog_bytes} bytes retained by the introspected toy catalog")
