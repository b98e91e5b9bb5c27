"""The batch runner's concurrency, built on ``threading`` alone.

``ThreadPool(max_workers).map(fn, items)`` calls ``fn(item)`` once for each
item, in no set order, and keeps no results: ``fn`` reports its own. It
starts ``max_workers - 1`` helper threads at once; the caller is the last
slot, and runs items itself when it reads the iterator that ``map`` returns.
That reader runs items until they run out, waits until every started item
has ended, then raises the first exception an item raised, and yields
nothing. After an item raises, no item starts. Items are pulled one at a
time, under one lock, from the iterable as slots free up: no future or work
item exists per item.

An item may ``lend(wait, *args)`` its slot while it waits: another item starts
meanwhile, on a thread parked for want of a slot or on a new stand-in thread,
at most one stand-in per slot. So a map starts at most ``2 * max_workers - 1``
threads and holds at most ``2 * max_workers`` items in progress. The item
that lent goes on as soon as its wait ends; no new item starts until fewer
than ``max_workers`` are at work. A stand-in parks while every slot is at
work and exits when the items run out. Outside an item, ``lend`` just waits.
``cli`` imports this module for a feedback or refine run; analysis runs never
compile it.
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
        """fn over items; the helpers start now, and the caller runs items,
        then waits for the rest, when it reads the returned iterator."""
        pending = iter(items)
        error: BaseException | None = None  # the first an item raised
        exhausted = False  # pending has run out, or the map has stopped
        slots = self._max_workers
        at_work = 0  # items running that have not lent their slot
        in_progress = 0  # items started and not ended, lent or not
        parked = 0  # threads waiting to take a slot, counting stand-ins not yet waiting
        stand_ins = 0
        cond = self._cond

        def pull() -> tuple | None:
            """(item,) to run next if a slot is free, or None; under cond."""
            nonlocal exhausted, at_work, in_progress
            if exhausted or self._cancelled or at_work >= slots:
                return None
            for item in pending:
                at_work += 1
                in_progress += 1
                return (item,)
            exhausted = True
            return None

        def run(item) -> None:
            nonlocal at_work, in_progress, error, exhausted
            _slot.lend = lend_slot
            raised = None
            try:
                fn(item)
            except BaseException as exc:  # raised again by the reader, once all have ended
                raised = exc
            _slot.lend = None
            with cond:
                at_work -= 1
                in_progress -= 1
                if raised is not None and error is None:
                    error = raised
                    exhausted = True  # no item starts after it
                cond.notify_all()

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

        def reader() -> Iterator:
            nonlocal exhausted
            try:
                helper()  # the caller's own slot
                with cond:
                    while in_progress:
                        cond.wait()
            finally:
                with cond:
                    exhausted = True  # a reader that stops starts no more items
                    cond.notify_all()
            if error is not None:
                raise error
            yield from ()

        for _ in range(slots - 1):
            thread = threading.Thread(target=helper)
            thread.start()
            self._threads.append(thread)
        return reader()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop pulling items if cancel_futures; join every thread if wait."""
        if cancel_futures:
            with self._cond:
                self._cancelled = True
                self._cond.notify_all()  # a parked thread exits
        if wait:
            for thread in self._threads:  # a stand-in started meanwhile joins the list
                thread.join()
