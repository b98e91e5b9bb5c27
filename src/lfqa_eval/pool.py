"""The batch runner's concurrency, built on ``threading`` alone.

``ThreadPool(max_workers).map(fn, items)`` yields ``fn(item)`` for each item
in input order. It starts ``max_workers - 1`` helper threads; the thread that
reads the results is the last slot, and runs items itself while it waits for
the next result in order, so at most ``max_workers`` items run at once. Items
are pulled one at a time, under one lock, from the iterable as slots free up:
no future or work item exists per item. An exception ``fn`` raises is raised
again where its result is read, in its turn.

``OrderedLines`` writes each record's line in corpus order from whichever
thread finishes the last line before it, so a record that the reading thread
is still running holds back no line before it. ``cli`` imports this module
for a feedback or refine run; analysis runs never compile it.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator


class ThreadPool:
    def __init__(self, max_workers: int):
        self._max_workers = max_workers
        self._threads: list[threading.Thread] = []
        self._cond = threading.Condition()
        self._cancelled = False

    def map(self, fn: Callable, items: Iterable) -> Iterator:
        """fn over items in input order; the helpers start now, and the caller
        runs items when it reads the results."""
        pending = iter(items)
        done: dict[int, tuple[bool, object]] = {}  # index -> (raised, its result)
        pulled = 0  # items taken from pending
        exhausted = False  # pending has run out, or the map has stopped
        cond = self._cond

        def pull():
            """(index, item) of the next item to run, or None; under cond."""
            nonlocal pulled, exhausted
            if exhausted or self._cancelled:
                return None
            for item in pending:
                pulled += 1
                return pulled - 1, item
            exhausted = True
            return None

        def run(index: int, item) -> tuple[bool, object]:
            try:
                outcome = (False, fn(item))
            except BaseException as exc:  # raised again where its result is read
                outcome = (True, exc)
            with cond:
                done[index] = outcome
                cond.notify_all()
            return outcome

        def helper() -> None:
            while True:
                with cond:
                    job = pull()
                if job is None:
                    return
                run(*job)

        def results() -> Iterator:
            nonlocal exhausted
            index = 0
            try:
                while True:
                    with cond:
                        job = None
                        while index not in done:
                            job = pull()
                            if job is not None:
                                break
                            if index >= pulled:
                                return  # no item is left to read
                            cond.wait()  # a helper is running it
                        else:
                            raised, result = done.pop(index)
                    if job is not None:  # the caller's own slot
                        raised, result = run(*job)
                        if raised and not isinstance(result, Exception):
                            raise result  # an interrupt stops the map at once
                    elif raised:
                        raise result
                    else:
                        yield result
                        index += 1
            finally:
                with cond:
                    exhausted = True  # a reader that stops starts no more items

        for _ in range(self._max_workers - 1):
            thread = threading.Thread(target=helper)
            thread.start()
            self._threads.append(thread)
        return results()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop pulling items if cancel_futures; join every helper if wait."""
        if cancel_futures:
            with self._cond:
                self._cancelled = True
        if wait:
            for thread in self._threads:
                thread.join()


class OrderedLines:
    """Values passed to write(key, value) in the order of keys, each as soon as
    it and every value before it are there, from whichever thread puts the
    last of them. ``values`` may hold some at the start (the lines --resume
    keeps); flush() writes those that come first. A write that raises sets
    ``stopped``, and no value is written after it."""

    def __init__(self, keys: list, values: dict, write: Callable):
        self._keys = keys
        self._values = values
        self._write = write
        self._turn = 0  # keys[:turn] are written
        self._lock = threading.Lock()
        self.stopped = False

    def put(self, key, value) -> None:
        with self._lock:
            self._values[key] = value
            self._flush()

    def flush(self) -> None:
        with self._lock:
            self._flush()

    def _flush(self) -> None:
        while not self.stopped and self._turn < len(self._keys):
            key = self._keys[self._turn]
            if key not in self._values:
                return
            self._turn += 1
            try:
                self._write(key, self._values.pop(key))
            except BaseException:
                self.stopped = True
                raise
