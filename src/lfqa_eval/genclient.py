"""Pluggable text-generation backends.

Two kinds: ``http`` speaks the common chat-completion JSON protocol
(bearer-token auth, ``model``/``messages``/``temperature``/``n``/
``max_tokens`` body, ``choices[i].message.content`` responses); ``scripted``
replays fixtures from a directory keyed by the SHA-256 digest of the exact
prompt text, for deterministic tests and offline runs.

Transient transport failures (connection errors, timeouts, a body cut short
of its ``Content-Length``, 429, 5xx) are retried with exponential backoff; on
429 and 503 a delta-seconds ``Retry-After`` lengthens the wait to the
server's value, capped at the client's ``timeout`` (an HTTP-date or malformed
value keeps the backoff). Authentication and response-schema errors are
never retried. Credential values are read from a named environment variable
when the client is made, so a missing one fails before any request, and they
never appear in error messages.

``requests`` is needed only for ``kind = http`` backends and is imported when
the first such client is made; importing this module, or making a scripted
client, loads no HTTP stack. Without ``requests``, making an http client
raises a ``GenerationError`` that names it.

Each HTTP client owns one ``requests.Session`` whose kept-alive connection
pool holds at most ``max_in_flight`` sockets, the same bound the client's
semaphore puts on live requests. The settings ``requests`` would otherwise
re-read from the environment on every call (proxies and ``NO_PROXY``, the
``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE`` CA bundle and ``~/.netrc`` auth)
are resolved once for the endpoint when the client is made; a change to them
afterwards reaches only clients made after it. With ``native_n`` off, the n
single-sample calls of every request share one client-wide executor of
``max_in_flight`` threads. ``close()`` (or leaving a ``with`` block) releases
the sockets and the executor's threads.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import requests

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
    stop_sequences: tuple[str, ...] = ()
    metadata: str = ""  # caller's record id, for logs only

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass
class GenerationResult:
    texts: list[str]
    backend_id: str
    latency: float
    truncated: list[bool]


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
    native_n: bool = True  # server honors the n parameter; else fan out n calls

    def validate(self) -> None:
        if self.kind == "http":
            if not self.endpoint_url or not self.model_name:
                raise ValueError("http backend requires endpoint_url and model_name")
        elif self.kind == "scripted":
            if not self.fixture_dir:
                raise ValueError("scripted backend requires fixture_dir")
        else:
            raise ValueError(f"unknown backend kind '{self.kind}'")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


# ---------------------------------------------------------------------------
# Fixture store


class FixtureStore:
    """Directory of digest-named JSON files mapping a prompt to its replies."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @staticmethod
    def digest(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

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
        if not texts:
            raise ValueError("fixture texts must be non-empty")
        path = self.path_for(prompt)
        try:
            existing = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            pass
        else:
            if json.loads(existing).get("texts") != list(texts):
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
        path = self.path_for(prompt)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise FixtureError(f"no fixture for prompt digest {path.stem}") from None
        payload = json.loads(raw)
        texts = payload.get("texts")
        if not isinstance(texts, list) or not texts:
            raise FixtureError(f"fixture {path.name} has no texts")
        return [str(t) for t in texts]


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
        self._sem = threading.BoundedSemaphore(config.max_in_flight)
        self._store = (
            FixtureStore(config.fixture_dir) if config.kind == "scripted" else None
        )
        self._session: requests.Session | None = None
        self._fan_out: ThreadPoolExecutor | None = None
        if config.kind == "http":
            self._headers = self._auth_headers(config)  # raises before a session exists
            try:
                import requests
                from requests.adapters import HTTPAdapter
                from requests.utils import get_netrc_auth
            except ImportError as exc:
                raise GenerationError(
                    "the 'requests' package is needed only for kind = http backends, "
                    f"and importing it failed: {exc}"
                ) from None
            self._transient = (
                requests.ConnectionError,
                requests.Timeout,
                requests.exceptions.ChunkedEncodingError,  # body cut short
            )
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=config.max_in_flight)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
            # What requests would derive from os.environ on every call:
            # proxies (NO_PROXY applied to this endpoint), CA bundle, netrc.
            self._send_settings = session.merge_environment_settings(
                config.endpoint_url, {}, None, None, None
            )
            self._send_settings["auth"] = get_netrc_auth(config.endpoint_url)
            session.trust_env = False
            self._session = session
            if not config.native_n:
                # starts its threads on first use, up to max_in_flight
                self._fan_out = ThreadPoolExecutor(max_workers=config.max_in_flight)

    def close(self) -> None:
        """Shut down the fan-out threads and close the pooled connections."""
        if self._fan_out is not None:
            self._fan_out.shutdown(wait=True)
        if self._session is not None:
            self._session.close()

    def __enter__(self) -> GenerationClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scripted ----------------------------------------------------------

    def _scripted_generate(self, request: GenerationRequest) -> GenerationResult:
        entries = self._store.lookup(request.prompt)
        texts = [entries[i % len(entries)] for i in range(request.n_samples)]
        return GenerationResult(
            texts=texts,
            backend_id="scripted",
            latency=0.0,
            truncated=[False] * request.n_samples,
        )

    # -- http ----------------------------------------------------------------

    @staticmethod
    def _auth_headers(config: BackendConfig) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if config.auth_env:
            credential = os.environ.get(config.auth_env, "")
            if not credential:
                raise CredentialError(
                    f"credential environment variable '{config.auth_env}' is not set"
                )
            headers["Authorization"] = f"Bearer {credential}"
        return headers

    def _body(self, request: GenerationRequest, n: int) -> dict:
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if n > 1:
            body["n"] = n
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        return body

    def _post_with_retries(self, body: dict) -> dict:
        attempt = 0
        while True:
            transient: str | None = None
            retry_after = 0.0
            try:
                with self._sem:
                    response = self._session.post(
                        self.config.endpoint_url,
                        json=body,
                        headers=self._headers,
                        timeout=self.config.timeout,
                        **self._send_settings,
                    )
            except self._transient as exc:
                transient = type(exc).__name__
            else:
                status = response.status_code
                if status in (401, 403):
                    raise CredentialError(
                        f"authentication rejected (HTTP {status}); check the "
                        f"'{self.config.auth_env or 'unset'}' credential"
                    )
                if status == 429 or status >= 500:
                    transient = f"HTTP {status}"
                    if status in (429, 503):
                        retry_after = _retry_after_s(response.headers.get("Retry-After"))
                elif status >= 400:
                    raise GenerationError(f"HTTP {status}: {response.text[:200]}")
                else:
                    try:
                        return response.json()
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
            time.sleep(max(backoff, min(retry_after, self.config.timeout)))

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
        backend_id = f"http:{self.config.model_name}"
        start = time.monotonic()
        if self.config.native_n or request.n_samples == 1:
            data = self._post_with_retries(self._body(request, request.n_samples))
            texts, truncated = self._extract(data, request.n_samples)
        else:
            body = self._body(request, 1)
            futures = [
                self._fan_out.submit(self._post_with_retries, dict(body))
                for _ in range(request.n_samples)
            ]
            texts, truncated = [], []
            try:
                for future in futures:  # submission order, not completion order
                    t, trunc = self._extract(future.result(), 1)
                    texts.extend(t)
                    truncated.extend(trunc)
            finally:
                # after a failure, calls still queued in the shared pool are
                # dropped rather than sent for a request that already failed
                for future in futures:
                    future.cancel()
        return GenerationResult(
            texts=texts,
            backend_id=backend_id,
            latency=time.monotonic() - start,
            truncated=truncated,
        )

    def generate(self, request: GenerationRequest) -> GenerationResult:
        if self.config.kind == "scripted":
            return self._scripted_generate(request)
        return self._http_generate(request)
