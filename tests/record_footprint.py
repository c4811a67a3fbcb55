"""Print the bytes one run record, and one catalog, retain, measured with tracemalloc.

Runs the toy dataset of tests/helpers.py through run_benchmark with the
scripted backend, then frees the records and counts the traced bytes that
went with them; then introspects the toy database and counts the bytes
that go with the catalog when it is freed.  Run it from the root of a
checkout:

    PYTHONPATH=src:tests python tests/record_footprint.py
"""
from __future__ import annotations

import gc
import tempfile
import tracemalloc
from pathlib import Path
from typing import Callable

from ensql.catalog import introspect
from ensql.config import PipelineConfig
from ensql.harness import load_dataset, run_benchmark

from helpers import ScriptedBackend, ToyScript, write_toy_dataset

# each toy question runs this many times, so a record's share of the
# count outweighs tracemalloc's own bookkeeping
REPEATS = 20


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
    per_record, count, catalog_bytes = footprint()
    print(f"{per_record:.0f} bytes retained per record ({count} toy records)")
    print(f"{catalog_bytes} bytes retained by the introspected toy catalog")
