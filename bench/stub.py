"""Stub chat-completion endpoint for the benchmark's HTTP workloads.

Run it as its own process, so its CPU time and interpreter lock are not the
measured process's::

    python3 bench/stub.py --fixtures DIR [--delay-ms 10] [--fail-share 0.01]

It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until it is
terminated or its standard input closes.

- ``POST`` (any path) answers a chat-completion request with the fixture
  texts stored for the digest of the prompt, taking the first ``n`` entries
  cyclically, as the scripted backend does.
- The first attempt of a fixed share of the fixture prompts gets a 503
  instead; later attempts succeed. The prompts are spread evenly through
  ``send_order.txt`` in the fixture directory, the digests in the order
  the workload sends them (``failing_digests``).
- Replies are HTTP/1.1 with ``Content-Length``, and status line, headers
  and body go out in one write: split writes meet the client's delayed ACK
  and add tens of milliseconds per request on a kept-alive connection.
- ``GET /_stats`` returns the counters since the last reset as JSON:
  POSTs, accepted connections that carried a POST, 5xx replies sent and the time-weighted mean
  of requests in flight. ``GET /_stats?reset=1`` also resets them and the
  set of prompts that already failed once.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def choose_texts(texts: list[str], n: int) -> list[str]:
    """The first n fixture entries, cycling when n exceeds the stored count."""
    return [texts[i % len(texts)] for i in range(n)]


def failing_digests(order: list[str], share: float) -> set[str]:
    """The prompts whose first attempt fails: round(share * count) of the digests
    in send order, evenly spaced, so none is near either end.

    The client's retry backoff holds a worker: in mid-batch the other worker
    carries on, but at the end of a batch the whole pass waits for it. Were
    the prompts picked by digest, whether one fell there would depend on the
    seed, and so would the pass time.
    """
    count = round(share * len(order))
    return {order[(k + 1) * len(order) // (count + 1)] for k in range(count)}


def http_response(status: int, reason: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class StubState:
    """Fixtures, fault plan and counters shared by the handler threads."""

    def __init__(self, fixture_dir: Path, delay_s: float, fail_share: float):
        self.fixture_dir = Path(fixture_dir)
        self.delay_s = delay_s
        order = (self.fixture_dir / "send_order.txt").read_text("ascii").split()
        self.failing = failing_digests(order, fail_share)
        self._texts: dict[str, list[str]] = {}
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.failed_once: set[str] = set()
            self.posts = self.connections = self.errors_5xx = 0
            self.in_flight = 0
            self._area = 0.0
            self._first = self._last = None

    def texts(self, digest: str) -> list[str]:
        cached = self._texts.get(digest)
        if cached is None:
            payload = json.loads((self.fixture_dir / f"{digest}.json").read_text("utf-8"))
            cached = self._texts[digest] = payload["texts"]
        return cached

    def _advance(self, now: float) -> None:
        if self._last is not None:
            self._area += self.in_flight * (now - self._last)
        self._last = now

    def begin(self, digest: str) -> bool:
        """Count a POST; True when this attempt must fail with a 503."""
        now = time.perf_counter()
        with self._lock:
            if self._first is None:
                self._first = now
            self._advance(now)
            self.in_flight += 1
            self.posts += 1
            fail = digest in self.failing and digest not in self.failed_once
            if fail:
                self.failed_once.add(digest)
                self.errors_5xx += 1
            return fail

    def end(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self.in_flight -= 1

    def count_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def stats(self) -> dict:
        with self._lock:
            span = (self._last - self._first) if self._first is not None else 0.0
            return {
                "posts": self.posts,
                "connections": self.connections,
                "errors_5xx": self.errors_5xx,
                "in_flight_mean": self._area / span if span > 0 else 0.0,
            }


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: StubState  # set on the subclass made by serve()

    def setup(self):
        super().setup()
        self.carried_post = False

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send(self, status: int, reason: str, obj: dict) -> None:
        self.wfile.write(http_response(status, reason, json.dumps(obj).encode("utf-8")))

    def do_GET(self):
        if not self.path.startswith("/_stats"):
            self._send(404, "Not Found", {"error": "unknown path"})
            return
        stats = self.state.stats()
        if self.path.endswith("reset=1"):
            self.state.reset()
        self._send(200, "OK", stats)

    def do_POST(self):
        if not self.carried_post:  # count connections that carry POSTs, not /_stats
            self.carried_post = True
            self.state.count_connection()
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        if self.state.begin(digest):
            try:
                self._send(503, "Service Unavailable", {"error": "injected failure"})
            finally:
                self.state.end()
            return
        try:
            if self.state.delay_s:
                time.sleep(self.state.delay_s)
            texts = choose_texts(self.state.texts(digest), int(body.get("n", 1)))
            self._send(
                200,
                "OK",
                {
                    "choices": [
                        {"index": i, "message": {"role": "assistant", "content": t},
                         "finish_reason": "stop"}
                        for i, t in enumerate(texts)
                    ]
                },
            )
        finally:
            self.state.end()


def serve(fixture_dir: Path, delay_s: float, fail_share: float) -> ThreadingHTTPServer:
    """Bind a stub server on an ephemeral 127.0.0.1 port (not yet serving)."""
    handler = type("BoundStubHandler", (StubHandler,), {})
    handler.state = StubState(fixture_dir, delay_s, fail_share)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", required=True, help="fixture directory")
    parser.add_argument("--delay-ms", type=float, default=10.0, help="service delay per POST")
    parser.add_argument("--fail-share", type=float, default=0.0,
                        help="share of prompts whose first attempt gets a 503")
    args = parser.parse_args(argv)
    server = serve(Path(args.fixtures), args.delay_ms / 1000.0, args.fail_share)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin
    except KeyboardInterrupt:
        pass
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
