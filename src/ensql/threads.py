"""The worker threads the whole process shares.

Each new thread gets a malloc arena of its own, which keeps the memory its
thread freed after the thread is gone, so the engine's pools are built once
per process rather than per runner: the model-call pool (gateway.CallThrottle)
and the SQL helpers (harness._Batch).
"""
from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable


class SharedPool:
    """A process-wide thread pool, built at its first submit.

    Its size is the largest any submit has asked for so far.  A submit that
    asks for more replaces the pool with a larger one; the old pool's
    threads finish the tasks they were given and exit.  Threads start only
    when a task finds none idle.
    """

    def __init__(self, name: str):
        self.name = name
        self.size = 0
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def submit(self, size: int, fn: Callable, /, *args, **kwargs) -> Future:
        """Run fn on a pool of at least size threads; a task must never wait on a queued one."""
        with self._lock:
            if size > self.size:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ThreadPoolExecutor(size, thread_name_prefix=self.name)
                self.size = size
            return self._pool.submit(fn, *args, **kwargs)
