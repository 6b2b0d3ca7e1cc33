"""One thread per CPU this process may use, for work whose numpy calls release
the GIL.

fan_out(n_tasks, scratch, draw, work) runs tasks 0..n_tasks-1 on
min(CPUs, n_tasks) workers: one in the calling thread, the others in threads
that are all joined before fan_out returns or raises. Each worker makes its
s = scratch() once, then claims the next task i, runs draw(i, s) under one
lock and work(i, drawn, s) outside it; so draws from a shared generator are
taken in task order whichever worker claims each task, and no worker waits
for a turn. The first exception a worker raises stops the others at their
next claim and is re-raised in the caller. With one CPU the same code runs
in the calling thread alone.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

S = TypeVar("S")
D = TypeVar("D")


def fan_out(
    n_tasks: int,
    scratch: Callable[[], S],
    draw: Callable[[int, S], D],
    work: Callable[[int, D, S], object],
) -> list[S]:
    """Every task's draw and work, as above; the workers' scratch objects."""
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    workers = min(cpus, n_tasks)
    lock = threading.Lock()
    next_task = [0]  # n_tasks once stopped
    scratches: list = [None] * workers
    errors: list[BaseException] = []

    def stop() -> None:
        with lock:
            next_task[0] = n_tasks

    def run(k: int) -> None:
        try:
            s = scratches[k] = scratch()
            while True:
                with lock:
                    i = next_task[0]
                    if i == n_tasks:
                        return
                    next_task[0] = n_tasks  # stopped, unless draw returns
                    drawn = draw(i, s)
                    next_task[0] = i + 1
                work(i, drawn, s)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            stop()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    try:
        for t in threads:
            t.start()
        run(0)
        for t in threads:
            t.join()
    finally:
        # Reached with threads still running only after an exception here,
        # such as a KeyboardInterrupt while joining: stop them first.
        stop()
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]
    return scratches
