"""One thread per CPU this process may use, for work whose numpy calls release
the GIL.

fan_out(n_tasks, run) calls run(crew) once in each of crew.workers =
min(CPUs, n_tasks) workers: one in the calling thread, the others in threads
that are all joined before fan_out returns or raises. Each worker takes
tasks 0..n_tasks-1 through crew.claim, which hands out the next task and runs
its draw under one lock; so draws from a shared generator are taken in task
order whichever worker claims each task, and no worker waits for a turn. The
first exception a worker raises stops the crew and is re-raised in the
caller. With one CPU the same code runs in the calling thread alone.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

T = TypeVar("T")


class Crew:
    """What the workers of one fan_out share: their count and the next task
    to claim."""

    def __init__(self, workers: int, n_tasks: int) -> None:
        self.workers = workers
        self._n_tasks = n_tasks
        self._next = 0
        self._lock = threading.Lock()

    def stop(self) -> None:
        """Leave no task to claim."""
        with self._lock:
            self._next = self._n_tasks

    def claim(self, draw: Callable[[int], T]) -> T | None:
        """draw(i) for the next task i, or None once every task is claimed or
        the crew has stopped; no two draws overlap. A draw that raises stops
        the crew, so no task is claimed after it."""
        with self._lock:
            i = self._next
            if i == self._n_tasks:
                return None
            self._next = self._n_tasks  # stopped, unless draw returns
            out = draw(i)
            self._next = i + 1
        return out


def fan_out(n_tasks: int, run: Callable[[Crew], T]) -> list[T]:
    """run(crew) in each of crew.workers workers in parallel, their results
    in a list."""
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    crew = Crew(min(cpus, n_tasks), n_tasks)
    results: list = [None] * crew.workers
    errors: list[BaseException] = []

    def work(k: int) -> None:
        try:
            results[k] = run(crew)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            crew.stop()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, crew.workers)]
    try:
        for t in threads:
            t.start()
        work(0)
        for t in threads:
            t.join()
    finally:
        # Reached with threads still running only after an exception here,
        # such as a KeyboardInterrupt while joining: stop them first.
        crew.stop()
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]
    return results
