"""Print the bytes one run record retains, measured with tracemalloc.

Runs the toy dataset of tests/helpers.py through run_benchmark with the
scripted backend, then frees the records and counts the traced bytes that
went with them.  Run it from the root of a checkout:

    PYTHONPATH=src:tests python tests/record_footprint.py
"""
from __future__ import annotations

import gc
import tempfile
import tracemalloc
from pathlib import Path

from ensql.config import PipelineConfig
from ensql.harness import load_dataset, run_benchmark

from helpers import ScriptedBackend, ToyScript, write_toy_dataset

# each toy question runs this many times, so a record's share of the
# count outweighs tracemalloc's own bookkeeping
REPEATS = 20


def bytes_per_record() -> tuple[float, int]:
    """(traced bytes freed with the records / records, records)."""
    with tempfile.TemporaryDirectory() as directory:
        items = load_dataset(write_toy_dataset(Path(directory))) * REPEATS
        tracemalloc.start()
        try:
            records, _ = run_benchmark(
                PipelineConfig.default(), items, ScriptedBackend(ToyScript()),
                record_timing=False,
            )
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            count = len(records)
            del records
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return freed / count, count


if __name__ == "__main__":
    per_record, count = bytes_per_record()
    print(f"{per_record:.0f} bytes retained per record ({count} toy records)")
