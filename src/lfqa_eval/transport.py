"""The HTTP/1.1 transport of ``genclient``'s http clients, over ``socket``.

``Connection`` sends a request's status line, headers and body in one write
and reads the reply framed by ``Content-Length``, by chunked transfer coding
(chunk extensions and trailers are read and dropped) or by the server's
close, skipping any 1xx reply before it. A reply that breaks the framing is
an ``HTTPException``, an ``OSError`` like every other transport failure; it
and its subclasses keep the names of ``http.client``'s exceptions, and the
line and header limits are ``http.client``'s too. Unlike ``http.client``,
it bounds the body: a ``Content-Length``, chunk size or running total over
``_MAX_BODY`` bytes is a ``ReplyTooLarge`` before that data is read, and a
close-delimited body is read in 64 KiB pieces against the same cap. More
than ``_MAX_INTERIM`` 1xx replies to one request are an ``HTTPException``.
Neither ``http.client``
nor the ``email`` package it parses headers with is loaded, nor ``ssl``:
an https endpoint's client hands its ``Connection`` a context to wrap the
socket with. ``genclient`` imports this module when it makes its first http
client, so the analysis subcommands and scripted runs never compile it.
"""
from __future__ import annotations

import socket

_MAX_LINE = 65536  # bytes in a status, header, chunk-size or trailer line
_MAX_HEADERS = 100  # header lines in one reply
_MAX_INTERIM = 100  # 1xx replies before the final one
# bytes in one reply body: an n = 20 reply of 4,096-token samples is well under
# 1 MiB, yet a Content-Length or chunk size is the server's to state
_MAX_BODY = 64 * 1024 * 1024


class HTTPException(OSError):
    """A reply that breaks HTTP/1.1 framing."""


class IncompleteRead(HTTPException):
    pass


class BadStatusLine(HTTPException):
    pass


class LineTooLong(HTTPException):
    pass


class RemoteDisconnected(BadStatusLine):
    pass


class ReplyTooLarge(HTTPException):
    """A reply body over _MAX_BODY bytes."""


def _bounded(size: int, what: str) -> int:
    if size > _MAX_BODY:
        raise ReplyTooLarge(f"{what} of {size} bytes is over the {_MAX_BODY}-byte reply cap")
    return size


def _read_line(fp, what: str) -> bytes:
    line = fp.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise LineTooLong(what)
    return line


def _read_head(fp) -> tuple[bytes, int, dict[str, str]]:
    """(version, status, {lower-case name: its first value}) of the next reply
    that is not 1xx; up to _MAX_INTERIM 1xx replies before it are read and skipped."""
    for _ in range(_MAX_INTERIM + 1):
        line = _read_line(fp, "status line")
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        parts = line.split(None, 2)
        if not (
            len(parts) >= 2 and parts[0].startswith(b"HTTP/1.")
            and len(parts[1]) == 3 and parts[1].isdigit() and parts[1] >= b"100"
        ):
            raise BadStatusLine(line)
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _read_line(fp, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise HTTPException(f"got more than {_MAX_HEADERS} headers")
        status = int(parts[1])
        if status >= 200:
            return parts[0], status, headers
    raise HTTPException(f"got more than {_MAX_INTERIM} 1xx replies")


def _read_exactly(fp, size: int) -> bytes:
    data = fp.read(size)
    if len(data) < size:
        raise IncompleteRead(f"{len(data)} bytes read, {size - len(data)} more expected")
    return data


def _read_body(fp, status: int, headers: dict[str, str]) -> tuple[bytes, bool]:
    """(the body, whether it ended where the connection can carry another reply)."""
    if status in (204, 304):
        return b"", True
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks, total = [], 0
        while True:
            line = _read_line(fp, "chunk size")
            try:
                size = int(line.split(b";", 1)[0], 16)  # a chunk extension follows ';'
            except ValueError:
                size = -1
            if size < 0:
                raise IncompleteRead(f"chunk size line {line[:40]!r}")
            if size == 0:
                break
            total = _bounded(total + size, "chunked body")
            data = _read_exactly(fp, size + 2)  # the data, then CRLF
            if data[size:] != b"\r\n":
                raise HTTPException(f"chunk data not followed by CRLF: {data[size:]!r}")
            chunks.append(data[:size])
        while _read_line(fp, "trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return b"".join(chunks), True
    length = headers.get("content-length", "")
    if length.isascii() and length.isdigit():
        # int() refuses over 4,300 digits, and 20 of them already name a size over the cap
        size = int(length.lstrip("0")[:20] or 0)
        return _read_exactly(fp, _bounded(size, "Content-Length")), True
    pieces, total = [], 0  # delimited by the server's close
    while piece := fp.read1(65536):
        total = _bounded(total + len(piece), "close-delimited body")
        pieces.append(piece)
    return b"".join(pieces), False


class Connection:
    """One HTTP/1.1 connection to (host, port), the endpoint or its proxy. It
    connects on first use and again after a close; ``tunnel`` is a CONNECT
    request sent first, and ``tls`` the (context, server name) that then wraps
    the socket for an https endpoint."""

    def __init__(self, host: str, port: int, timeout: float, tunnel: bytes, tls):
        self.host, self.port = host, port
        self.sock = None
        self._timeout = timeout
        self._tunnel = tunnel
        self._tls = tls

    def _connect(self):
        sock = socket.create_connection((self.host, self.port), self._timeout)
        try:
            # a request's last partial segment would otherwise wait for the server to
            # ACK the ones before it, which it may delay
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as fp:
                    _, status, _ = _read_head(fp)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status}")
            if self._tls:
                context, server_name = self._tls
                sock = context.wrap_socket(sock, server_hostname=server_name)
        except BaseException:
            sock.close()
            raise
        return sock

    def post(self, head: bytes, payload: bytes) -> tuple[int, dict[str, str], bytes]:
        """(status, headers, body) of one POST: head ends in "Content-Length: ",
        and status line, headers and body go out in one write."""
        if self.sock is None:
            self.sock = self._connect()
        self.sock.sendall(b"%s%d\r\n\r\n%s" % (head, len(payload), payload))
        with self.sock.makefile("rb") as fp:
            version, status, headers = _read_head(fp)
            body, framed = _read_body(fp, status, headers)
        connection = headers.get("connection", "").lower()
        keep = "keep-alive" in connection if version == b"HTTP/1.0" else "close" not in connection
        if not (framed and keep):
            self.close()
        return status, headers, body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
