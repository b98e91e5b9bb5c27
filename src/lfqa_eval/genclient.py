"""Pluggable text-generation backends.

Two kinds: ``http`` speaks the common chat-completion JSON protocol
(bearer-token auth, ``model``/``messages``/``temperature``/``n``/
``max_tokens`` body, ``choices[i].message.content`` responses); ``scripted``
replays fixtures from a directory keyed by the SHA-256 digest of the exact
prompt text, for deterministic tests and offline runs. The digest is
CPython's built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256`` before; ``hashlib``
only where neither exists), found at the first digest: the analysis
subcommands and scripted runs map no OpenSSL. Nor does an ``http://`` client;
an ``https://`` one does, through ``ssl``. A client imports
``urllib.request``, and ``hashlib`` with it, only where a proxy can apply: a
``*_proxy`` variable is set, or the platform is macOS or Windows, whose
system settings can name one.

Transient transport failures (any ``OSError``: a refused or reset
connection, a timeout, a TLS error, or a reply that breaks HTTP/1.1 framing,
such as a body cut short of its ``Content-Length``; 429, 5xx) are retried with
exponential backoff; on 429 and 503 a delta-seconds ``Retry-After``
lengthens the wait to the server's value, capped at the client's ``timeout``
(an HTTP-date or malformed value keeps the backoff). During the client's
own backoff, after an ``OSError`` or a 5xx without ``Retry-After``, the
request's connection goes back to the queue; a 429, or any reply with
``Retry-After``, keeps it out until the retry, which it carries, as the
server asked for less traffic. Authentication errors,
3xx replies (never followed) and response-schema errors are never retried.
Credential values are read from a named environment variable when the
client is made, so a missing one fails before any request, as does one
holding a CR, LF, NUL or non-Latin-1 character, which no HTTP header may
carry; they never appear in error messages.

The HTTP transport is ``transport.Connection``, an HTTP/1.1 client over
``socket`` that sends each request in one write. ``transport``, ``select``
and ``urllib.parse`` are imported when the first ``kind = http`` client is
made, ``netrc`` only when the ``.netrc`` file exists, ``base64`` only to
build a Basic ``Authorization`` header, and ``ssl`` only for an ``https://``
endpoint; importing this module, or making a scripted client, loads none of
them and no thread pool. Each
HTTP client makes its ``max_in_flight`` connections when it is made (opening
no socket) and sends every request on one of them, so they are both its
kept-alive pool and the bound on its live requests: a request waits while all
of them are out. A connection the server has closed, which ``poll`` (``select``
where there is no ``poll``) finds before the next request, connects again on
that request without costing an attempt. What the environment says about the
endpoint (the proxy from ``*_proxy``/``NO_PROXY``, the ``REQUESTS_CA_BUNDLE``/
``CURL_CA_BUNDLE`` CA file and ``.netrc`` auth) is resolved once when the
client is made; a change to it afterwards reaches only clients made after it.
With ``native_n`` off, a request's n single-sample calls go one after another
on the caller's thread, each waiting for a connection like any other, so the
connections are the client's only concurrency bound; a request stops at its
first failed call. ``close()`` (or leaving a ``with`` block) closes every
connection's socket.
"""
from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__

BACKOFF_BASE = 0.5  # seconds; doubles on each retry


class GenerationError(RuntimeError):
    pass


class CredentialError(GenerationError):
    pass


class FixtureError(GenerationError):
    pass


class FixtureConflictError(FixtureError):
    pass


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_tokens: int
    temperature: float
    n_samples: int = 1

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature}")


@dataclass
class GenerationResult:
    texts: list[str]
    truncated: list[bool]  # per text: the reply's finish_reason was "length"


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # "http" or "scripted"
    endpoint_url: str = ""
    model_name: str = ""
    auth_env: str = ""  # name of the env var holding the credential; "" = no auth
    timeout: float = 60.0
    max_retries: int = 2
    max_in_flight: int = 4
    fixture_dir: str = ""
    native_n: bool = True  # server honors the n parameter; else n single calls

    def validate(self) -> None:
        if self.kind == "http":
            if not self.endpoint_url or not self.model_name:
                raise ValueError("http backend requires endpoint_url and model_name")
            scheme, _, rest = self.endpoint_url.partition("://")
            authority = rest.split("/", 1)[0]
            if scheme.lower() not in ("http", "https") or not authority:
                raise ValueError(
                    "http backend endpoint_url must be an http:// or https:// URL with a host"
                )
            if "@" in authority:
                raise ValueError(
                    "http backend endpoint_url must not carry credentials; name an auth_env"
                )
            # the host and the path go into the request line and the Host header
            if any(ch <= " " or ch == "\x7f" for ch in self.endpoint_url):
                raise ValueError(
                    "http backend endpoint_url must not hold whitespace or control characters"
                )
            if not rest[len(authority):].isascii():
                raise ValueError(
                    "http backend endpoint_url must be ASCII after the host; "
                    "percent-encode its path"
                )
        elif self.kind == "scripted":
            if not self.fixture_dir:
                raise ValueError("scripted backend requires fixture_dir")
        else:
            raise ValueError(f"unknown backend kind '{self.kind}'")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout}")


# ---------------------------------------------------------------------------
# Fixture store


_sha256 = None  # the SHA-256 constructor, found at the first digest


def _find_sha256():
    """CPython's built-in SHA-256, which maps no OpenSSL; hashlib's where it is missing.

    Found once per process: a failed import is not cached, so trying
    ``_sha2`` on every digest would search ``sys.path`` every time on 3.11.
    """
    global _sha256
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    _sha256 = sha256
    return sha256


class FixtureStore:
    """Directory of digest-named JSON files mapping a prompt to its replies."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._prefix = os.path.join(root, "")  # a str join costs lookup less than a Path

    @staticmethod
    def digest(prompt: str) -> str:
        return (_sha256 or _find_sha256())(prompt.encode("utf-8")).hexdigest()

    def path_for(self, prompt: str) -> Path:
        return self.root / f"{self.digest(prompt)}.json"

    def record(self, prompt: str, texts: list[str]) -> None:
        """Write the fixture for prompt; re-recording the same texts is a no-op.

        The JSON goes to a temporary file in the same directory that then
        replaces the fixture path, so the fixture path holds either nothing
        or a whole fixture. A failure raised while writing removes the
        temporary file; a hard kill such as SIGKILL can leave a stray
        ``<digest>.json.<pid>-<tid>.tmp``, which lookups never read.
        """
        if not texts or not all(isinstance(t, str) for t in texts):
            raise ValueError("fixture texts must be a non-empty list of strings")
        path = self.path_for(prompt)
        existing = self._read(path.name)
        if existing is not None:
            if existing != list(texts):
                raise FixtureConflictError(
                    f"fixture {path.name} already recorded with a different payload"
                )
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"prompt": prompt, "texts": list(texts)}
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            tmp.write_text(
                json.dumps(payload, ensure_ascii=False, indent=None), encoding="utf-8"
            )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def lookup(self, prompt: str) -> list[str]:
        digest = self.digest(prompt)
        texts = self._read(f"{digest}.json")
        if texts is None:
            raise FixtureError(f"no fixture for prompt digest {digest}")
        return texts

    def _read(self, name: str) -> list[str] | None:
        """The texts of the fixture file called name, None if there is none;
        a malformed fixture raises FixtureError naming the file."""
        try:
            with open(self._prefix + name, encoding="utf-8") as file:
                payload = json.loads(file.read())
        except FileNotFoundError:
            return None
        except ValueError:  # not UTF-8, or not JSON
            raise FixtureError(f"fixture {name} is not JSON") from None
        if not isinstance(payload, dict):
            raise FixtureError(f"fixture {name} is not a JSON object")
        texts = payload.get("texts")
        if not (isinstance(texts, list) and texts and all(isinstance(t, str) for t in texts)):
            raise FixtureError(f"fixture {name}: texts is not a non-empty list of strings")
        return texts


# ---------------------------------------------------------------------------
# Client


def _retry_after_s(value: str | None) -> float:
    """A Retry-After header's delta-seconds; 0 when absent, an HTTP-date or malformed."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class GenerationClient:
    """Thread-safe client for one backend; at most max_in_flight live requests."""

    def __init__(self, config: BackendConfig):
        config.validate()
        self.config = config
        self._store = (
            FixtureStore(config.fixture_dir) if config.kind == "scripted" else None
        )
        self._connections: list = []
        if config.kind == "http":
            headers = self._auth_headers(config)  # raises before anything is resolved
            self._resolve_transport(config, headers)

    def close(self) -> None:
        """Close every connection's socket."""
        for conn in self._connections:
            conn.close()

    def __enter__(self) -> GenerationClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scripted ----------------------------------------------------------

    def _scripted_generate(self, request: GenerationRequest) -> GenerationResult:
        entries = self._store.lookup(request.prompt)
        texts = [entries[i % len(entries)] for i in range(request.n_samples)]
        return GenerationResult(texts=texts, truncated=[False] * request.n_samples)

    # -- http ----------------------------------------------------------------

    @staticmethod
    def _auth_headers(config: BackendConfig) -> dict[str, str]:
        headers = {
            "Content-Type": "application/json",
            "User-Agent": f"lfqa-eval/{__version__}",
        }
        if config.auth_env:
            credential = os.environ.get(config.auth_env, "")
            if not credential:
                raise CredentialError(
                    f"credential environment variable '{config.auth_env}' is not set"
                )
            # a CR or LF would end the header early, a non-Latin-1 character has
            # no byte in the request head, and servers refuse NUL
            if any(ch in "\r\n\0" or ch > "\xff" for ch in credential):
                raise CredentialError(
                    f"credential environment variable '{config.auth_env}' holds a CR, LF, "
                    "NUL or non-Latin-1 character, which no HTTP header may carry"
                )
            headers["Authorization"] = f"Bearer {credential}"
        return headers

    def _resolve_transport(self, config: BackendConfig, headers: dict[str, str]) -> None:
        """Resolve once what every request to the endpoint would re-read from
        the environment: the proxy (NO_PROXY applied to this endpoint), the CA
        file and .netrc auth (only when no auth_env names a credential). Every
        request then sends the same head up to its Content-Length value."""
        import select
        import urllib.parse

        from .transport import Connection

        def basic(user: str, password: str) -> str:
            import base64

            return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")

        url = urllib.parse.urlsplit(config.endpoint_url)
        scheme, host = url.scheme.lower(), url.hostname
        default_port = 443 if scheme == "https" else 80
        port = url.port or default_port
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        ascii_host = host if host.isascii() else host.encode("idna").decode("ascii")
        if ":" in ascii_host:
            ascii_host = f"[{ascii_host}]"  # an IPv6 literal
        host_port = f"{ascii_host}:{port}"
        authority = ascii_host if port == default_port else host_port  # the Host header's value
        if "Authorization" not in headers:
            path = os.path.expanduser(os.environ.get("NETRC", "~/.netrc"))
            entry = None
            if os.path.exists(path):  # netrc, and the shlex it loads, only for a file that is there
                import netrc

                try:
                    entry = netrc.netrc(path).authenticators(host)
                except (OSError, ValueError, netrc.NetrcParseError):
                    pass  # an unreadable, non-UTF-8 or malformed netrc: no netrc auth
            if entry:
                login, account, password = entry
                headers["Authorization"] = basic(login or account or "", password or "")

        proxy = None
        # outside macOS and Windows, whose system settings can name a proxy,
        # urllib.request finds one only in a non-empty *_proxy variable; without
        # one it is not imported, nor the hashlib it loads
        if sys.platform == "darwin" or os.name == "nt" or any(
            value and name.lower().endswith("_proxy") for name, value in os.environ.items()
        ):
            import urllib.request

            proxies = urllib.request.getproxies()
            proxy = proxies.get(scheme) or proxies.get("all")
            if proxy and urllib.request.proxy_bypass(host):
                proxy = None
        address, tunnel, proxy_auth = (host, port), b"", ""
        if proxy:
            parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if parts.scheme.lower() != "http" or not parts.hostname:
                raise GenerationError(
                    f"the proxy for {scheme} requests must be an http:// URL with a host"
                )
            address = (parts.hostname, parts.port or 80)
            if parts.username:
                user = urllib.parse.unquote(parts.username)
                password = urllib.parse.unquote(parts.password or "")
                proxy_auth = f"Proxy-Authorization: {basic(user, password)}\r\n"
            if scheme == "https":  # CONNECT, then TLS to the endpoint
                connect = f"CONNECT {host_port} HTTP/1.1\r\nHost: {host_port}\r\n{proxy_auth}\r\n"
                tunnel = connect.encode("ascii")
            else:  # an absolute-URI request to the proxy
                target = f"http://{authority}{target}"

        tls = None
        if scheme == "https":
            import ssl

            cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            tls = (ssl.create_default_context(cafile=cafile or None), host)
        head = f"POST {target} HTTP/1.1\r\nHost: {authority}\r\nAccept-Encoding: identity\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if not tunnel:
            head += proxy_auth  # for an http endpoint the proxy reads every request's head
        self._head = (head + "Content-Length: ").encode("latin-1")

        # a closed connection connects again on its next request, so these
        # objects live as long as the client; LIFO keeps the fewest sockets warm
        self._connections += [
            Connection(*address, config.timeout, tunnel, tls) for _ in range(config.max_in_flight)
        ]
        self._idle = list(self._connections)
        self._returned = threading.Condition()
        if hasattr(select, "poll"):
            def dropped(sock) -> bool:  # bytes, an EOF or an error to read now
                poller = select.poll()
                poller.register(sock, select.POLLIN)
                return bool(poller.poll(0))
        else:  # select takes only fds below FD_SETSIZE, 1024 on Linux
            def dropped(sock) -> bool:
                return bool(select.select([sock], [], [], 0)[0])
        self._dropped = dropped

    def _body(self, request: GenerationRequest, n: int) -> bytes:
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if n > 1:
            body["n"] = n
        return json.dumps(body).encode()

    def _post_with_retries(self, payload: bytes) -> dict:
        """POST payload on a pooled connection until a reply that is not transient."""
        attempt, conn = 0, None  # conn: the connection a wait the server asked for keeps
        try:
            while True:
                with self._returned:
                    while conn is None and not self._idle:  # all max_in_flight are out
                        self._returned.wait()
                    conn = conn or self._idle.pop()
                transient: str | None = None
                retry_after, headers = 0.0, {}
                try:
                    # an idle socket that reads as ready holds the server's close
                    # (or bytes nobody asked for): it cannot carry a request
                    if conn.sock is not None and self._dropped(conn.sock):
                        conn.close()
                    status, headers, raw = conn.post(self._head, payload)  # closes conn if the reply will close
                except BaseException as exc:
                    conn.close()
                    if not isinstance(exc, OSError):
                        raise
                    transient = type(exc).__name__
                else:
                    if status in (401, 403):
                        raise CredentialError(
                            f"authentication rejected (HTTP {status}); check the "
                            f"'{self.config.auth_env or 'unset'}' credential"
                        )
                    if 300 <= status < 400:
                        raise GenerationError(
                            f"HTTP {status} redirect to {headers.get('location')!r} "
                            "is not followed; set endpoint_url to the URL that answers"
                        )
                    if status == 429 or status >= 500:
                        transient = f"HTTP {status}"
                        if status in (429, 503):
                            retry_after = _retry_after_s(headers.get("retry-after"))
                    elif status >= 400:
                        raise GenerationError(
                            f"HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}"
                        )
                    else:
                        try:
                            return json.loads(raw)
                        except ValueError:
                            raise GenerationError(
                                "response schema violation: body is not JSON"
                            ) from None
                attempt += 1
                if attempt > self.config.max_retries:
                    raise GenerationError(
                        f"transport failure after {attempt} attempts ({transient})"
                    )
                backoff = BACKOFF_BASE * 2 ** (attempt - 1)
                if transient != "HTTP 429" and "retry-after" not in headers:
                    self._give_back(conn)  # the client's own backoff: another request takes it
                    conn = None
                time.sleep(max(backoff, min(retry_after, self.config.timeout)))
        finally:
            if conn is not None:
                self._give_back(conn)

    def _give_back(self, conn) -> None:
        """Return conn to the queue of idle connections."""
        with self._returned:
            self._idle.append(conn)
            self._returned.notify()

    @staticmethod
    def _extract(data: dict, expected_n: int) -> tuple[list[str], list[bool]]:
        choices = data.get("choices") if isinstance(data, dict) else None
        if not isinstance(choices, list) or len(choices) != expected_n:
            found = len(choices) if isinstance(choices, list) else "none"
            raise GenerationError(
                f"response schema violation: expected {expected_n} choices, found {found}"
            )
        texts, truncated = [], []
        for choice in choices:
            message = choice.get("message") if isinstance(choice, dict) else None
            content = message.get("content") if isinstance(message, dict) else None
            if not isinstance(content, str):
                raise GenerationError(
                    "response schema violation: choice without message.content"
                )
            texts.append(content)
            truncated.append(choice.get("finish_reason") == "length")
        return texts, truncated

    def _http_generate(self, request: GenerationRequest) -> GenerationResult:
        calls, n = (1, request.n_samples) if self.config.native_n else (request.n_samples, 1)
        payload = self._body(request, n)
        texts, truncated = [], []
        for _ in range(calls):
            t, trunc = self._extract(self._post_with_retries(payload), n)
            texts += t
            truncated += trunc
        return GenerationResult(texts=texts, truncated=truncated)

    def generate(self, request: GenerationRequest) -> GenerationResult:
        if self.config.kind == "scripted":
            return self._scripted_generate(request)
        return self._http_generate(request)
