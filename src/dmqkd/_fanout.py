"""One thread per CPU this process may use, for work whose numpy calls release
the GIL.

fan_out(n_tasks, run) calls run(k, crew) for k in range(crew.workers), with
crew.workers = min(CPUs, n_tasks): worker 0 in the calling thread, the others
in threads that are all joined before fan_out returns or raises. The first
exception a worker raises stops the crew and is re-raised in the caller. A
worker that must take a generator's draws in task order does so through
crew.in_turn. With one CPU the same code runs in the calling thread alone.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

T = TypeVar("T")


class Stopped(Exception):
    """Raised by Crew.in_turn once the crew has stopped."""


class Crew:
    """What the workers of one fan_out share: their count, a stop flag that
    they check between tasks, and a turn counter for draws taken in order."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.stopped = False
        self._turn = 0
        self._cond = threading.Condition()

    def stop(self) -> None:
        """Set the stop flag and wake every worker waiting for its turn."""
        with self._cond:
            self.stopped = True
            self._cond.notify_all()

    def in_turn(self, i: int, draw: Callable[[], T]) -> T:
        """draw() once turns 0..i-1 have ended, then end turn i; no two draws
        overlap. Raises Stopped if the crew stops first."""
        with self._cond:
            self._cond.wait_for(lambda: self._turn == i or self.stopped)
            if self.stopped:
                raise Stopped
            out = draw()
            self._turn += 1
            self._cond.notify_all()
        return out


def fan_out(n_tasks: int, run: Callable[[int, Crew], T]) -> list[T]:
    """[run(0, crew), ..., run(crew.workers - 1, crew)], run in parallel."""
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    crew = Crew(min(cpus, n_tasks))
    results: list = [None] * crew.workers
    errors: list[BaseException] = []

    def work(k: int) -> None:
        try:
            results[k] = run(k, crew)
        except Stopped:
            pass
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
