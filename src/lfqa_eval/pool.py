"""The batch runner's concurrency, built on ``threading`` alone.

``ThreadPool(max_workers).map(fn, items)`` yields ``fn(item)`` for each item
in input order. It starts ``max_workers - 1`` helper threads; the thread that
reads the results is the last slot, and runs items itself while it waits for
the next result in order, so at most ``max_workers`` records are at work.
Items are pulled one at a time, under one lock, from the iterable as slots
free up: no future or work item exists per item. An exception ``fn`` raises
is raised again where its result is read, in its turn.

An item may ``lend(wait, *args)`` its slot while it waits: another item starts
meanwhile, on a thread parked for want of a slot or on a new stand-in thread,
at most one stand-in per slot. So a map starts at most ``2 * max_workers - 1``
threads and holds at most ``2 * max_workers`` items in progress. The item
that lent goes on as soon as its wait ends; no new item starts until fewer
than ``max_workers`` are at work. A stand-in parks while every slot is at
work and exits when the items run out. Outside an item, ``lend`` just waits.

``OrderedLines`` writes each record's line in corpus order from whichever
thread finishes the last line before it, so a record that the reading thread
is still running holds back no line before it. ``cli`` imports this module
for a feedback or refine run; analysis runs never compile it.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator


_slot = threading.local()  # .lend while this thread runs an item of a map


def lend(wait: Callable, *args):
    """wait(*args), lending this thread's slot meanwhile if it runs an item."""
    lend_slot = getattr(_slot, "lend", None)
    return wait(*args) if lend_slot is None else lend_slot(wait, *args)


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
        slots = self._max_workers
        at_work = 0  # items running that have not lent their slot
        parked = 0  # threads waiting to take a slot, counting stand-ins not yet waiting
        stand_ins = 0
        cond = self._cond

        def pull():
            """(index, item) of the next item to run if a slot is free, or None; under cond."""
            nonlocal pulled, exhausted, at_work
            if exhausted or self._cancelled or at_work >= slots:
                return None
            for item in pending:
                pulled += 1
                at_work += 1
                return pulled - 1, item
            exhausted = True
            return None

        def run(index: int, item) -> tuple[bool, object]:
            nonlocal at_work
            _slot.lend = lend_slot
            try:
                outcome = (False, fn(item))
            except BaseException as exc:  # raised again where its result is read
                outcome = (True, exc)
            _slot.lend = None
            with cond:
                at_work -= 1
                done[index] = outcome
                cond.notify_all()
            return outcome

        def lend_slot(wait: Callable, *args):
            nonlocal at_work, parked, stand_ins
            with cond:
                at_work -= 1
                stopped = exhausted or self._cancelled
                if parked < slots - at_work and stand_ins < slots and not stopped:
                    stand_ins += 1
                    parked += 1
                    thread = threading.Thread(target=stand_in)
                    thread.start()
                    self._threads.append(thread)
                cond.notify_all()
            try:
                return wait(*args)
            finally:
                with cond:
                    at_work += 1  # at once, though every slot may be at work

        def helper() -> None:
            nonlocal parked
            while True:
                with cond:
                    while (job := pull()) is None and not (exhausted or self._cancelled):
                        parked += 1
                        cond.wait()
                        parked -= 1
                if job is None:
                    return
                run(*job)

        def stand_in() -> None:
            nonlocal parked
            with cond:
                parked -= 1  # counted from its start, by the lend that started it
            helper()

        def results() -> Iterator:
            nonlocal exhausted, parked
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
                            parked += 1
                            cond.wait()  # for its result, or for a slot
                            parked -= 1
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
                    cond.notify_all()

        for _ in range(slots - 1):
            thread = threading.Thread(target=helper)
            thread.start()
            self._threads.append(thread)
        return results()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop pulling items if cancel_futures; join every thread if wait."""
        if cancel_futures:
            with self._cond:
                self._cancelled = True
                self._cond.notify_all()  # a parked thread exits
        if wait:
            for thread in self._threads:  # a stand-in started meanwhile joins the list
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
