"""The batch runner's concurrency, built on ``threading`` alone.

``ThreadPool(max_workers).map(fn, items)`` calls ``fn(item)`` once per item,
in no set order, and keeps no results: ``fn`` reports its own. It starts
``max_workers - 1`` helper threads at once; the caller is the last thread, and
runs items itself when it reads the iterator that ``map`` returns. Each thread
pulls the next item under one lock. After an item raises, no item starts; the
reader joins the helpers, raises the first exception an item raised, and
yields nothing. Only threaded feedback and refine runs import this module.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator

_END = object()  # what next() gives once the items run out


class ThreadPool:
    def __init__(self, max_workers: int):
        self._max_workers = max_workers
        self._threads: list[threading.Thread] = []
        self._cancelled = False

    def map(self, fn: Callable, items: Iterable) -> Iterator:
        """fn over items; the helpers start now, the caller when it reads the result."""
        pending = iter(items)
        errors: list[BaseException] = []  # the first an item raised
        stopped = False  # by a raising item, or a reader that stopped early
        lock = threading.Lock()

        def run() -> None:
            nonlocal stopped
            while True:
                with lock:
                    if stopped or self._cancelled:
                        return
                    item = next(pending, _END)
                if item is _END:
                    return
                try:
                    fn(item)
                except BaseException as exc:  # raised again by the reader
                    with lock:
                        stopped = True  # no item starts after it
                        if not errors:
                            errors.append(exc)
                    return

        def reader() -> Iterator:
            nonlocal stopped
            try:
                run()  # the caller's own share
                for thread in helpers:
                    thread.join()
            finally:
                stopped = True  # a reader that stops starts no more items
            if errors:
                raise errors.pop()  # not errors[0], which its traceback would hold in a cycle
            yield from ()

        helpers = [threading.Thread(target=run) for _ in range(self._max_workers - 1)]
        for thread in helpers:
            thread.start()
        self._threads += helpers
        return reader()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop pulling items if cancel_futures; join every helper if wait."""
        if cancel_futures:
            self._cancelled = True
        if wait:
            for thread in self._threads:
                thread.join()
