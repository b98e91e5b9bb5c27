"""Command-line front end.

Subcommands:

- validate      schema-check a corpus file, listing every violation
- stats         span-granularity distribution per aspect + answer-length histogram
- score         per-answer scorecards + per-domain preference/score report
- agreement     per-domain preference agreement (Krippendorff's alpha)
- feedback      sample feedback per answer and keep the most consistent output
- refine        refine answers (improve / generic / eir modes)
- eval-detect   weighted detection accuracy of predictions against a corpus
- eval-correct  error-rate report + correction precision/recall/F1 from score files
- selfcheck     aggregate per-sentence support verdicts over sampled answers

Exit codes: 0 ok, 1 data/config error, 2 usage error, 3 some records failed.

Importing this module loads only corpus, models and segment; each subcommand
imports the layers it runs when it starts, before it reads any input.

Configuration is a plain-text ``key = value`` file; a '#' that starts a line
or follows whitespace starts a comment. Command-line flags override file
values, which override the defaults. Credentials are only ever read from the
environment variable a backend's ``auth_env`` key names.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import threading
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from importlib import import_module
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .corpus import CorpusError, classify_granularity, iter_corpus_records, json_object, load_corpus
from .corpus import open_jsonl, read_corpus, read_field
from .models import DEFAULT_N_SAMPLES, TAG_COMPLETE, TAG_INCOMPLETE
from .models import Aspect, QARecord, SentenceSpan, SpanGranularity
from .segment import segment_sentences


class ConfigError(ValueError):
    pass


class UsageError(ValueError):
    """A command line that parses but asks for nothing that exists (exit 2)."""


# ---------------------------------------------------------------------------
# Configuration


_SCALAR_KEYS = {"n_samples": int, "workers": int}

_BACKEND_KEYS = {
    "kind": str,
    "endpoint_url": str,
    "model_name": str,
    "auth_env": str,
    "timeout": float,
    "max_retries": int,
    "max_in_flight": int,
    "fixture_dir": str,
    "native_n": bool,
    "temperature": float,
    "max_tokens": int,
}

_HTTP_ONLY = ("endpoint_url", "model_name", "auth_env", "timeout", "max_retries", "max_in_flight", "native_n")
_UNUSED_BY_KIND = {"http": ("fixture_dir",), "scripted": _HTTP_ONLY}  # the keys a kind never reads

_ROLES = ("feedback", "refine")


@dataclass(frozen=True)
class RoleConfig:
    """One role's settings as set; None where the config leaves one unset."""

    backend: BackendConfig | None = None
    temperature: float | None = None
    max_tokens: int | None = None


@dataclass
class CliConfig:
    n_samples: int = DEFAULT_N_SAMPLES
    workers: int | None = None  # cap on the run's slots, None = none; kept for the benchmark
    roles: dict[str, RoleConfig] = field(default_factory=dict)

    def __post_init__(self):
        for key in ("n_samples", "workers"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")


def _coerce(key: str, raw: str, kind: type):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}' expects {kind.__name__}, got '{raw}'") from None


_COMMENT = re.compile(r"(?:^|\s)#.*")  # a '#' after whitespace: 'http://h/p#frag' keeps its '#'


def parse_config_text(text: str) -> dict[str, str]:
    """{key: value} of a config file; a key set on two lines is a ConfigError."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    # LF, CRLF and CR end a line, as in every JSON-lines input; str.splitlines
    # would also split a value at \f, \x85 or U+2028
    for ln, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a byte load_config read as a lone surrogate
            raise ConfigError(f"config line {ln}: not UTF-8") from None
        stripped = _COMMENT.sub("", line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {ln}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in set_on:
            message = f"duplicate key '{key}' (first seen on line {set_on[key]})"
            raise ConfigError(f"config line {ln}: {message}")
        set_on[key] = ln
        values[key] = value
    return values


def load_config(path: str | None, overrides: dict | None = None) -> CliConfig:
    """Defaults <- config file <- overrides, rejecting unknown keys."""
    values: dict[str, str] = {}
    if path:
        values.update(parse_config_text(Path(path).read_text("utf-8", "surrogateescape")))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = str(value)

    scalars: dict = {}
    role_settings: dict[str, dict] = defaultdict(dict)
    for key, raw in values.items():
        if key in _SCALAR_KEYS:
            scalars[key] = _coerce(key, raw, _SCALAR_KEYS[key])
            continue
        role, _, sub = key.partition(".")
        if role in _ROLES and sub in _BACKEND_KEYS:
            role_settings[role][sub] = _coerce(key, raw, _BACKEND_KEYS[sub])
            continue
        raise ConfigError(f"unknown config key '{key}'")

    from .genclient import BackendConfig
    roles: dict[str, RoleConfig] = {}
    for role, settings in role_settings.items():
        temperature = settings.pop("temperature", None)
        if temperature is not None and not 0.0 <= temperature < math.inf:
            raise ConfigError(f"{role}.temperature must be a finite number >= 0, got {temperature}")
        max_tokens = settings.pop("max_tokens", None)
        if max_tokens is not None and max_tokens < 1:
            raise ConfigError(f"{role}.max_tokens must be at least 1, got {max_tokens}")
        backend = None
        if settings:
            if "kind" not in settings:
                raise ConfigError(f"backend '{role}' is configured but has no '{role}.kind'")
            for key in (key for key in settings if key in _UNUSED_BY_KIND.get(settings["kind"], ())):
                raise ConfigError(f"{role}.{key} is not used when {role}.kind = {settings['kind']}")
            backend = BackendConfig(**settings)
            try:
                backend.validate()
            except ValueError as exc:
                raise ConfigError(f"backend '{role}': {exc}") from None
        roles[role] = RoleConfig(backend, temperature, max_tokens)

    return CliConfig(roles=roles, **scalars)


def _apply_backend_flag(config: CliConfig, flag: str | None) -> CliConfig:
    """--backend scripted:DIR points every role at one fixture directory."""
    if not flag:
        return config
    if not flag.startswith("scripted:"):
        raise ConfigError(
            f"--backend expects 'scripted:DIR' (http backends belong in the config file), got '{flag}'"
        )
    fixture_dir = flag[len("scripted:") :]
    if not fixture_dir:
        raise ConfigError("--backend scripted: needs a directory")
    from .genclient import BackendConfig
    scripted = BackendConfig(kind="scripted", fixture_dir=fixture_dir)
    config.roles = {
        role: replace(config.roles.get(role, RoleConfig()), backend=scripted) for role in _ROLES
    }
    return config


def _client_for(config: CliConfig, role: str) -> GenerationClient:
    backend = config.roles.get(role, RoleConfig()).backend
    if backend is None:
        raise ConfigError(
            f"no '{role}' backend configured; set {role}.kind in the config "
            "file or pass --backend scripted:DIR"
        )
    from .genclient import GenerationClient
    return GenerationClient(backend)


def _open_role(
    stack: ExitStack, config: CliConfig, role: str
) -> tuple[GenerationClient, dict[str, float | int | None]]:
    """role's client, entered on stack, and the temperature and max_tokens its requests take.

    An unset temperature is 0.0 for a scripted backend, whose fixtures are keyed
    by prompt only, and REFINE_TEMPERATURE for refine; an http feedback role needs one.
    """
    client = stack.enter_context(_client_for(config, role))
    settings = config.roles[role]
    temperature = settings.temperature
    if temperature is None:
        if client.config.kind == "scripted":
            temperature = 0.0
        elif role == "refine":
            from .refine import REFINE_TEMPERATURE
            temperature = REFINE_TEMPERATURE
        else:
            raise ConfigError(f"{role}.temperature is required for http backends (no default)")
    return client, {"temperature": temperature, "max_tokens": settings.max_tokens}


# ---------------------------------------------------------------------------
# Small I/O helpers


def _keyed_lines(
    source: str, lines: Iterable[str], parse: Callable[[dict], tuple]
) -> Iterator[tuple[int, object, object]]:
    """(line number, key, value) per non-blank line of open_jsonl, parse(obj) giving the pair.

    The one reader of every keyed side file. Each line needs a non-empty string
    record_id, checked before parse, and a key no earlier line has. It keeps only
    {key: line number}, and yields each line before it reads the next. A
    CorpusError or UsageError for a line, parse's own included, reads
    'SOURCE: line N: cause', where source is e.g. '--judgments PATH'.
    """
    seen: dict = {}
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json_object(line)
            record_id = obj.get("record_id")
            if record_id is None:
                raise CorpusError("line has no record_id")
            if type(record_id) is not str or not record_id:
                raise CorpusError(f"record_id {record_id!r} is not a non-empty string")
            key, value = parse(obj)
            if key in seen:
                raise CorpusError(f"duplicate key {key!r} (first seen on line {seen[key]})")
        except (CorpusError, UsageError) as exc:
            raise type(exc)(f"{source}: line {ln}: {exc}") from None
        seen[key] = ln
        yield ln, key, value


@contextmanager
def _writing(path: str | None) -> Iterator[Callable[[Iterable[str]], None]]:
    """write(lines) streams to PATH.tmp, which replaces PATH when the block ends.

    If the block raises, PATH.tmp is removed and PATH keeps its bytes, so no
    output is ever left truncated. Without PATH, write discards its lines.
    """
    if not path:
        yield lambda lines: None
        return
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield lambda lines: handle.writelines(line + "\n" for line in lines)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with _writing(path) as write:
        write(lines)


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    problems: list[str] = []
    count = 0
    for ln, _record, line_problems in iter_corpus_records(args.corpus):
        count += 1
        problems.extend(f"line {ln}: {p}" for p in line_problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{count} records checked, {len(problems)} violations")
        return 1
    print(f"{count} records OK")
    return 0


# ---------------------------------------------------------------------------
# stats


_LENGTH_BUCKET = 50
_LENGTH_BUCKETS = 10  # final bucket is open-ended


def _bucket_label(idx: int) -> str:
    if idx == _LENGTH_BUCKETS:
        return f"{_LENGTH_BUCKET * _LENGTH_BUCKETS}+"
    return f"{idx * _LENGTH_BUCKET}-{(idx + 1) * _LENGTH_BUCKET - 1}"


def corpus_stats(records: Iterable[QARecord]) -> tuple[dict[str, dict], dict[str, Counter]]:
    """Per-aspect granularity distribution, and answers per source and length bucket.

    Whole-answer marks span the text. Only the texts an annotation targets are
    segmented, each once. A length bucket is its index in word order.
    """
    counts: dict[Aspect, Counter] = {a: Counter() for a in Aspect}
    histogram: dict[str, Counter] = defaultdict(Counter)
    for record in records:
        for answer in record.answers:
            bucket = min(len(answer.text.split()) // _LENGTH_BUCKET, _LENGTH_BUCKETS)
            histogram[answer.source.value][bucket] += 1
        segmented: dict[int | None, list[SentenceSpan]] = {}
        for ann in record.annotations:
            target = ann.answer_index  # None targets the question
            text = record.question if target is None else record.answers[target].text
            sentences = segmented.get(target)
            if sentences is None:
                sentences = segmented[target] = segment_sentences(text)
            start, end = ann.span if ann.span is not None else (0, len(text))
            granularity = classify_granularity(start, end, sentences, text)
            counts[ann.aspect][granularity] += 1

    rows: dict[str, dict] = {}
    percent_rows = []
    for aspect in Aspect:
        total = sum(counts[aspect].values())
        if total == 0:
            continue
        pct = {g.value: 100.0 * counts[aspect][g] / total for g in SpanGranularity}
        rows[aspect.value] = {"n_spans": total, **pct}
        percent_rows.append(pct)
    if percent_rows:
        rows["average"] = {
            "n_spans": sum(r["n_spans"] for r in rows.values()),
            **{
                g.value: sum(p[g.value] for p in percent_rows) / len(percent_rows)
                for g in SpanGranularity
            },
        }
    return rows, dict(histogram)


def _cmd_stats(args) -> int:
    spans, lengths = corpus_stats(read_corpus(args.corpus))

    header = f"{'Aspect':<24}{'Spans':>7}{'Phrase':>10}{'Sentence':>10}{'Multi':>10}"
    print(header)
    print("-" * len(header))
    for aspect, row in spans.items():
        print(
            f"{aspect:<24}{row['n_spans']:>7}"
            f"{row['phrase']:>9.2f}%{row['sentence']:>9.2f}%{row['multi_sentence']:>9.2f}%"
        )
    print()
    print(f"{'Answer words':<12}" + "".join(f"{s:>10}" for s in sorted(lengths)))
    for bucket in sorted({b for counter in lengths.values() for b in counter}):
        print(
            f"{_bucket_label(bucket):<12}"
            + "".join(f"{lengths[s].get(bucket, 0):>10}" for s in sorted(lengths))
        )

    if args.out:
        lines = [
            _dump({"kind": "span_granularity", "aspect": aspect, **row})
            for aspect, row in spans.items()
        ]
        lines += [
            _dump({"kind": "answer_length", "source": source, "bucket": _bucket_label(b), "count": n})
            for source, counter in sorted(lengths.items())
            for b, n in sorted(counter.items())
        ]
        _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# score / agreement


def _cmd_score(args) -> int:
    from .scoring import domain_report, format_aspect_table, format_domain_table
    with _writing(args.out) as write:
        report = domain_report(
            read_corpus(args.corpus), lambda cards: write(_dump(c.to_dict()) for c in cards)
        )
    print(format_domain_table(report))
    print()
    print(format_aspect_table(report))
    if args.report:
        _write_lines(
            args.report,
            [_dump(row.to_dict()) for row in report.rows + [report.average]],
        )
    return 0


def _cmd_agreement(args) -> int:
    from .scoring import preference_report
    report = preference_report(read_corpus(args.corpus))
    header = f"{'Category':<14}{'Samples':>8}{'Alpha':>8}"
    print(header)
    print("-" * len(header))
    rows = []
    for row in report.rows + [report.average]:
        alpha = "-" if row.alpha is None else f"{row.alpha:.2f}"
        print(f"{row.domain:<14}{row.n_records:>8}{alpha:>8}")
        rows.append(_dump({"domain": row.domain, "n_records": row.n_records, "alpha": row.alpha}))
    if args.out:
        _write_lines(args.out, rows)
    return 0


# ---------------------------------------------------------------------------
# batch runner (feedback / refine)


def _parse_answer_selector(selector: str) -> str | int:
    """The --answer value: "all", "human", "model" or an answer index."""
    if selector in ("all", "human", "model"):
        return selector
    try:
        return int(selector)
    except ValueError:
        raise UsageError(
            f"--answer must be all, human, model, or an index, got '{selector}'"
        ) from None


def _select_answers(record: QARecord, selector: str | int) -> list[int]:
    if selector == "all":
        return list(range(len(record.answers)))
    if isinstance(selector, int):
        return [selector] if 0 <= selector < len(record.answers) else []
    return [i for i, a in enumerate(record.answers) if a.source.value == selector]


def _field(obj: dict, dotted: str):
    """obj's value at a dotted key path such as 'feedback.n_sampled'; None when absent."""
    for key in dotted.split("."):
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj


def _existing_lines(
    out: str, expected: dict[str, object], targets: set[tuple[str, int]]
) -> dict[tuple[str, int], str]:
    """The lines --resume keeps by (record_id, answer_index): OUT's, then
    OUT.partial's, which win; a file that does not exist keeps none.

    Each file is read through _keyed_lines, so a key twice in one file is a
    CorpusError. ``expected`` maps dotted keys of a line, and "audit", to this
    run's values; a kept line that differs, or whose key is not in ``targets``,
    comes from another run and is a UsageError. A kill mid-write can cut a
    file's last line at any byte, even inside a character, leaving no newline:
    that line is dropped, with a warning, if it does not parse.
    """

    def parse(obj: dict) -> tuple[tuple[str, int], str]:
        record_id = obj["record_id"]
        key = (record_id, read_field(obj, "answer_index", int, f"record {record_id!r}", 0))
        where = f"record {key[0]!r} answer {key[1]}"
        if key not in targets:
            raise UsageError(
                f"{where} is not a target of this run; --resume keeps only lines of the same run"
            )
        audited = "selected_raw" in obj or "prompt" in obj  # feedback's, refine's audit field
        for dotted, value in expected.items():
            found = audited if dotted == "audit" else _field(obj, dotted)
            if found != value:
                raise UsageError(
                    f"{where} has {dotted} {found!r} but this run has {value!r}; "
                    "--resume keeps only lines of the same run"
                )
        return key, _dump(obj)

    kept: dict[tuple[str, int], str] = {}
    for path in (out, f"{out}.partial"):
        if not Path(path).exists():
            continue
        with open_jsonl(path) as handle:
            lines = handle.readlines()
        if lines and not lines[-1].endswith("\n"):
            try:
                json_object(lines[-1])
            except CorpusError:
                warning = f"{path}: line {len(lines)}: torn last line dropped and recomputed"
                print(f"warning: {warning}", file=sys.stderr)
                lines.pop()
        kept.update((key, line) for _, key, line in _keyed_lines(path, lines, parse))
    return kept


def _seam(module: str, name: str) -> Callable:
    """module.name, loaded on its first call; a test or a tracer replaces it here."""

    def call(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(*args, **kwargs)

    return call


run_feedback = _seam(".feedback", "run_feedback")
run_eir = _seam(".refine", "run_eir")
refine_answer = _seam(".refine", "refine_answer")
detection_eval = _seam(".evalmetrics", "detection_eval")


class ThreadPoolExecutor:
    """The batch runner's threads, named like the stdlib class whose map and
    shutdown it keeps, so that a subclass of that class can take its place.
    map(fn, items) calls fn(item) once per item, keeping no results, on the
    calling thread and max_workers - 1 helpers, which pull the next item under
    one lock. After an item raises none starts, and map raises it once every
    thread has ended."""

    def __init__(self, max_workers: int):
        self._max_workers = max_workers

    def map(self, fn: Callable, items: Iterable) -> Iterator:
        pending = list(items)[::-1]  # popped from the end, so in order
        errors: list[BaseException] = []  # the first an item raised
        lock = threading.Lock()

        def run() -> None:
            while True:
                with lock:
                    if errors or not pending:
                        return
                    item = pending.pop()
                try:
                    fn(item)
                except BaseException as exc:  # raised again by the calling thread
                    with lock:
                        errors[:] = errors or [exc]

        helpers = [threading.Thread(target=run) for _ in range(self._max_workers - 1)]
        for thread in helpers:
            thread.start()
        try:
            run()  # the calling thread's own share
        finally:
            pending.clear()  # a caller interrupted between items starts no more
            for thread in helpers:
                thread.join()
        if errors:
            raise errors.pop()  # not errors[0], which its traceback would hold in a cycle
        return iter(())

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Nothing to stop or join: map has joined every thread."""


def _run_batch(
    args, config: CliConfig, roles: tuple[str, ...], expected: dict[str, object], work
) -> int:
    """Run work(record, answer_index, opened) -> a line's fields over the corpus.

    ``opened`` maps each of ``roles`` to its client and request settings,
    from ``_open_role``; the roles open before --answer is parsed or the
    corpus is read, and close when the run ends.

    Each line leads with the record_id and answer_index that --resume keys by.
    Lines go to OUT.partial as their records finish, after the kept ones,
    each flushed once written; at the end --out is written in corpus order
    through _writing, each line read back at its offset, and OUT.partial is
    removed. So a killed run leaves --out as it was and OUT.partial holding
    every finished line, which a run without --resume refuses to overwrite.
    A resumed run that finds OUT.partial first folds every kept line into
    --out, so truncating OUT.partial loses none of them if it is killed too.
    The http clients' connections bound the requests in flight; their count,
    the sum of max_in_flight capped at workers when it is set, is the run's
    slots. ThreadPoolExecutor(2 x slots - 1) runs the records, the calling
    thread among them, so while a record waits out its client's own backoff,
    its connection goes back to the queue and a spare thread takes it. A
    scripted client has no slot: with one slot or fewer the calling thread
    runs every record, in corpus order. A failure is reported on stderr as
    its record fails, and turns the exit code to 3; no line is written and
    no record starts after a failed write.
    """
    partial = f"{args.out}.partial"
    if not args.resume and os.path.exists(partial) and os.path.getsize(partial):
        with open(partial, "rb") as handle:
            held = sum(1 for _ in handle)
        raise UsageError(f"{partial} holds {held} lines of an unfinished run; pass --resume "
                         "to keep them, or remove it to start afresh")
    failed = 0
    with ExitStack() as stack:
        opened = {role: _open_role(stack, config, role) for role in roles}
        selector = _parse_answer_selector(args.answer)
        corpus = load_corpus(args.corpus)
        targets = [
            (record, idx)
            for record in corpus
            for idx in _select_answers(record, selector)
        ]
        if not targets and corpus:
            if isinstance(selector, int):
                largest = max(len(record.answers) for record in corpus) - 1
                hint = f"the largest answer index is {largest}"
            else:
                hint = f"no record has a {selector} answer"
            raise UsageError(f"--answer {args.answer} selects no answer in {args.corpus}; {hint}")
        existing = {}
        if args.resume:
            keys = {(record.id, idx) for record, idx in targets}
            existing = _existing_lines(args.out, {**expected, "audit": args.audit}, keys)
        if existing and Path(partial).exists():
            _write_lines(args.out, (existing[r.id, i] for r, i in targets if (r.id, i) in existing))

        handle = stack.enter_context(open(partial, "w", encoding="utf-8"))
        lock = threading.Lock()
        stopped = False  # by a failed write
        offsets: list[int | None] = [None] * len(targets)  # of each target's line in OUT.partial
        size = 0  # bytes written to OUT.partial

        def put(at: int, key: tuple[str, int], line: str | Exception) -> None:
            nonlocal failed, stopped, size
            with lock:
                if stopped:
                    return
                if isinstance(line, Exception):
                    cause = str(line) or type(line).__name__  # MemoryError() says nothing
                    print(f"failed: {key[0]!r}#{key[1]}: {cause}", file=sys.stderr)
                    failed += 1
                    return
                try:
                    handle.write(line + "\n")
                    handle.flush()
                except BaseException:
                    stopped = True
                    raise
                offsets[at] = size
                size += len(line.encode()) + 1

        todo = []  # (place in targets, record, answer index) to compute
        for at, (record, idx) in enumerate(targets):
            kept = existing.pop((record.id, idx), None)
            if kept is None:
                todo.append((at, record, idx))
            else:
                put(at, (record.id, idx), kept)

        def attempt(job: tuple[int, QARecord, int]) -> None:
            if stopped:  # by a failed write: start no record
                return
            at, record, idx = job
            try:
                fields = work(record, idx, opened)
                line = _dump({"record_id": record.id, "answer_index": idx, **fields})
            except Exception as exc:  # per-record isolation
                line = exc
            put(at, (record.id, idx), line)

        slots = sum(c.config.max_in_flight for c, _ in opened.values() if c.config.kind == "http")
        slots = min(slots, config.workers or slots)
        pool = ThreadPoolExecutor(max(2 * slots - 1, 1))
        stack.callback(pool.shutdown, cancel_futures=True)  # a stdlib pool then starts no queued record
        for _ in pool.map(attempt, todo):  # raises a failed write
            pass
    with open(partial, "rb") as lines:

        def read_back(offset: int) -> str:
            lines.seek(offset)
            return lines.readline()[:-1].decode("utf-8")

        _write_lines(args.out, (read_back(offset) for offset in offsets if offset is not None))
    os.remove(partial)
    print(
        f"{len(targets) - failed} results written to {args.out}"
        + (f", {failed} failed" if failed else "")
    )
    return 3 if failed else 0


def _feedback(config: CliConfig, opened: dict, record: QARecord, idx: int) -> FeedbackResult:
    """run_feedback on one answer through the opened feedback role."""
    client, settings = opened["feedback"]
    return run_feedback(
        record.question, record.answers[idx].text, client, config.n_samples, **settings
    )


def _cmd_feedback(args) -> int:
    import_module(".feedback", __package__)  # here, not in the first record's run_feedback
    config = _config_from_args(args)

    def work(record: QARecord, idx: int, opened: dict) -> dict:
        return _feedback(config, opened, record, idx).to_dict(args.audit)

    return _run_batch(args, config, ("feedback",), {"n_sampled": config.n_samples}, work)


def _cmd_refine(args) -> int:
    if args.mode != "eir" and args.n_samples is not None:
        message = f"--mode {args.mode} samples no feedback; --n-samples is used only by --mode eir"
        raise UsageError(message)
    from .refine import RefineMode
    config = _config_from_args(args)
    mode = {"improve": RefineMode.IMPROVE, "generic": RefineMode.GENERIC, "eir": RefineMode.ERROR_INFORMED}[args.mode]
    expected: dict[str, object] = {"mode": mode.value}
    roles: tuple[str, ...] = ("refine",)
    if mode is RefineMode.ERROR_INFORMED:
        roles += ("feedback",)
        expected["feedback.n_sampled"] = config.n_samples

    def work(record: QARecord, idx: int, opened: dict) -> dict:
        client, settings = opened["refine"]
        answer = record.answers[idx].text
        if mode is RefineMode.ERROR_INFORMED:
            feedback = _feedback(config, opened, record, idx)
            result = run_eir(record.question, answer, feedback, client, **settings)
        else:
            result = refine_answer(record.question, answer, mode, None, client, **settings)
        return result.to_dict(audit=args.audit)

    return _run_batch(args, config, roles, expected, work)


# ---------------------------------------------------------------------------
# eval-detect / eval-correct / selfcheck


def _cmd_eval_detect(args) -> int:
    from .evalmetrics import PredictionError, completeness_gold
    gold = completeness_gold(read_corpus(args.corpus))

    def prediction(obj: dict) -> tuple[tuple[str, int], tuple[int, tuple[int, ...]]]:
        record_id = obj["record_id"]
        idx = read_field(obj, "answer_index", int, f"record {record_id!r}", 0)
        answers = gold.get(record_id)
        if answers is not None and idx >= len(answers):
            message = f"answer_index {idx} out of range 0..{len(answers) - 1}"
            raise CorpusError(f"record {record_id!r}: {message}")
        selected = obj.get("selected") if "selected" in obj else obj
        tags = selected.get("tags") if isinstance(selected, dict) else None
        if not isinstance(tags, list):
            raise CorpusError(f"prediction for {record_id!r} has no tags")
        for tag in tags:
            if tag not in (TAG_COMPLETE, TAG_INCOMPLETE):
                message = f"record {record_id!r}: tag {tag!r} is neither Complete nor Incomplete"
                raise CorpusError(message)
        incomplete = tuple(i for i, tag in enumerate(tags) if tag == TAG_INCOMPLETE)
        return (record_id, idx), (len(tags), incomplete)

    source = f"--predictions {args.predictions}"
    with open_jsonl(args.predictions) as handle:
        lines = _keyed_lines(source, handle, prediction)
        ln = 0  # of the last prediction read

        def predictions():
            nonlocal ln
            for ln, key, p in lines:
                yield key, p

        try:
            report = detection_eval(gold, predictions())
        except PredictionError as exc:
            for _ in lines:  # a later bad line or duplicate key wins over it
                pass
            raise CorpusError(f"{source}: line {ln}: {exc}") from None
    totals, accuracy = report.counts, report.weighted_accuracy
    total = max(totals.total_predicted, 1)
    print(
        f"exact {totals.exact} ({100 * totals.exact / total:.2f}%)  "
        f"adjacent {totals.adjacent} ({100 * totals.adjacent / total:.2f}%)  "
        f"different {totals.different} ({100 * totals.different / total:.2f}%)"
    )
    print(
        "weighted accuracy: "
        + (f"{accuracy:.4f}" if accuracy is not None else "undefined (no predictions)")
        + f"  misses: {report.misses}  records: {report.n_records}"
    )
    if args.out:
        _write_lines(args.out, [_dump(report.to_dict())])
    return 0


_CORRECTION_DEFINITIONS = {
    "tp": "record flagged at baseline and clean after refinement",
    "fn": "record flagged at baseline and still flagged after refinement",
    "fp": "record clean at baseline and flagged after refinement",
}


def _read_scores(flag: str, path: str) -> dict[str, tuple[int, ErrorScoreRecord]]:
    """One score file's (line number, score) by record_id; each error names the flag,
    the path and the line. A score is a finite number >= 0 or a numeric string, not a bool."""
    from .evalmetrics import ErrorScoreRecord

    def score(obj: dict) -> tuple[str, ErrorScoreRecord]:
        record_id = obj["record_id"]
        where = f"record {record_id!r}"
        if "error_score" not in obj:
            raise CorpusError(f"{where}: score line needs record_id and error_score")
        value = obj["error_score"]
        try:
            if isinstance(value, bool):
                raise ValueError(value)
            error_score = float(value)
        except (TypeError, ValueError):
            raise CorpusError(f"{where}: error_score {value!r} is not a number") from None
        try:
            return record_id, ErrorScoreRecord(record_id, error_score)
        except ValueError as exc:
            raise CorpusError(f"{where}: {exc}") from None

    with open_jsonl(path) as handle:
        scores = {rid: (ln, s) for ln, rid, s in _keyed_lines(f"{flag} {path}", handle, score)}
    if not scores:
        raise CorpusError(f"{flag} {path}: no score records")
    return scores


def _cmd_eval_correct(args) -> int:
    from .evalmetrics import correction_prf, error_report
    files = [
        (f"{flag} {path}", _read_scores(flag, path))
        for flag, path in (("--baseline", args.baseline), ("--refined", args.refined))
    ]
    # Names the first id, in file order, that the baseline lacks in the refined
    # file, else the first the refined file lacks in the baseline.
    for (source, scores), (other, other_scores) in (files, files[::-1]):
        missing = next((rid for rid in scores if rid not in other_scores), None)
        if missing is not None:
            line = scores[missing][0]
            raise CorpusError(f"{source}: line {line}: record {missing!r} has no line in {other}")
    baseline, refined = ([record for _, record in scores.values()] for _, scores in files)
    base_pct, base_mean = error_report(baseline)
    ref_pct, ref_mean = error_report(refined)
    correction = correction_prf(
        *({rid: record.flagged for rid, (_, record) in scores.items()} for _, scores in files)
    )

    print(f"{'':<10}{'% error samples':>17}{'mean error score':>18}")
    print(f"{'baseline':<10}{base_pct:>16.2f}%{base_mean:>18.4f}")
    print(f"{'refined':<10}{ref_pct:>16.2f}%{ref_mean:>18.4f}")
    print(
        f"correction: precision {correction.precision:.4f}  "
        f"recall {correction.recall:.4f}  f1 {correction.f1:.4f}  "
        f"(tp {correction.tp}, fp {correction.fp}, fn {correction.fn})"
    )
    if correction.degenerate:
        print("warning: no baseline record was flagged; correction scores are degenerate")
    for key, meaning in _CORRECTION_DEFINITIONS.items():
        print(f"  {key}: {meaning}")
    if args.out:
        reports = [("baseline", base_pct, base_mean), ("refined", ref_pct, ref_mean)]
        lines = [
            {"kind": "error_report", "which": which, "pct_error_samples": pct,
             "mean_error_score": mean}
            for which, pct, mean in reports
        ]
        lines.append({"kind": "correction", **correction.to_dict(), "definitions": _CORRECTION_DEFINITIONS})
        _write_lines(args.out, [_dump(line) for line in lines])
    return 0


def _cmd_selfcheck(args) -> int:
    from .evalmetrics import SupportJudgment, selfcheck_aggregate
    grouped: dict[str, list[SupportJudgment]] = defaultdict(list)  # in first-seen record order

    def judgment(obj: dict) -> tuple[tuple[str, int], SupportJudgment]:
        """A line's judgment; its sentence_index defaults to the record's count so far."""
        record_id = obj["record_id"]
        where = f"record {record_id!r}"
        verdicts = read_field(obj, "verdicts", list, where)
        if not verdicts:
            raise CorpusError(f"{where}: verdicts [] is empty")
        so_far = len(grouped.get(record_id, ()))
        sentence_index = read_field(obj, "sentence_index", int, where, so_far)
        try:
            return (record_id, sentence_index), SupportJudgment(sentence_index, tuple(verdicts))
        except ValueError as exc:
            raise CorpusError(f"{where}, sentence {sentence_index}: {exc}") from None

    source = f"--judgments {args.judgments}"
    with open_jsonl(args.judgments) as handle:
        for _, (record_id, _), judged in _keyed_lines(source, handle, judgment):
            grouped[record_id].append(judged)

    lines = []
    supports = []
    for record_id, group in grouped.items():
        report = selfcheck_aggregate(sorted(group, key=lambda j: j.sentence_index))
        supports.append(report.answer_support)
        lines.append(_dump({"record_id": record_id, **report.to_dict()}))
    mean_support = sum(supports) / len(supports) if supports else 0.0
    print(
        f"{len(supports)} records  mean support {mean_support:.4f}  "
        f"mean inconsistency {1 - mean_support:.4f}"
    )
    if args.out:
        _write_lines(args.out, lines)
    else:
        for line in lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _config_from_args(args) -> CliConfig:
    config = load_config(args.config, {"n_samples": args.n_samples, "workers": args.workers})
    return _apply_backend_flag(config, args.backend)


def _add_batch_options(sub) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--backend", help="backend override, e.g. scripted:fixtures/")
    sub.add_argument("--answer", default="all", help="all | human | model | answer index")
    sub.add_argument("--n-samples", dest="n_samples", type=int, help="samples per answer")
    sub.add_argument(
        "--workers",
        type=int,
        help="cap on the connection slots, kept for the benchmark's fixed thread "
        "count; default the sum of max_in_flight over the http backends; a run "
        "with S slots runs records on 2 x S - 1 threads",
    )
    sub.add_argument("--resume", action="store_true", help="skip records already in --out")
    sub.add_argument("--audit", action="store_true", help="keep prompts/raw samples in the output")
    sub.add_argument("--out", required=True, help="output JSONL path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfqa-eval",
        description="Span-level error evaluation and refinement for long-form QA",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("validate", help="schema-check a corpus file")
    sub.add_argument("corpus")
    sub.set_defaults(func=_cmd_validate)

    sub = subparsers.add_parser("stats", help="span-granularity and length statistics")
    sub.add_argument("corpus")
    sub.add_argument("--out", help="output JSONL path")
    sub.set_defaults(func=_cmd_stats)

    sub = subparsers.add_parser("score", help="scorecards and per-domain report")
    sub.add_argument("corpus")
    sub.add_argument("--out", help="scorecards JSONL path")
    sub.add_argument("--report", help="domain report JSONL path")
    sub.set_defaults(func=_cmd_score)

    sub = subparsers.add_parser("agreement", help="per-domain Krippendorff alpha")
    sub.add_argument("corpus")
    sub.add_argument("--out", help="output JSONL path")
    sub.set_defaults(func=_cmd_agreement)

    sub = subparsers.add_parser("feedback", help="consistency-selected feedback per answer")
    sub.add_argument("corpus")
    _add_batch_options(sub)
    sub.set_defaults(func=_cmd_feedback)

    sub = subparsers.add_parser("refine", help="refine answers")
    sub.add_argument("corpus")
    sub.add_argument("--mode", required=True, choices=["improve", "generic", "eir"])
    _add_batch_options(sub)
    sub.set_defaults(func=_cmd_refine)

    sub = subparsers.add_parser("eval-detect", help="detection accuracy of predictions")
    sub.add_argument("corpus")
    sub.add_argument("--predictions", required=True, help="feedback output JSONL")
    sub.add_argument("--out", help="summary JSONL path")
    sub.set_defaults(func=_cmd_eval_detect)

    sub = subparsers.add_parser("eval-correct", help="error report + correction P/R/F1")
    sub.add_argument("--baseline", required=True, help="baseline score JSONL")
    sub.add_argument("--refined", required=True, help="refined score JSONL")
    sub.add_argument("--out", help="summary JSONL path")
    sub.set_defaults(func=_cmd_eval_correct)

    sub = subparsers.add_parser("selfcheck", help="aggregate support verdicts")
    sub.add_argument("--judgments", required=True, help="judgments JSONL")
    sub.add_argument("--out", help="output JSONL path")
    sub.set_defaults(func=_cmd_selfcheck)

    return parser


_INPUTS = {
    "corpus": "corpus",
    "predictions": "--predictions",
    "baseline": "--baseline",
    "refined": "--refined",
    "judgments": "--judgments",
    "config": "--config",
}
_OUTPUTS = {"out": "--out", "report": "--report"}


def _refuse_overwrites(args) -> None:
    """A UsageError when an output, or a side file it is written through (PATH.tmp;
    OUT.partial for a batch run), is the same file as an input or an earlier output."""
    seen = [(flag, getattr(args, dest)) for dest, flag in _INPUTS.items() if getattr(args, dest, None)]
    sides = (".tmp", ".partial") if hasattr(args, "resume") else (".tmp",)
    for dest, flag in _OUTPUTS.items():
        path = getattr(args, dest, None)
        if not path:
            continue
        for written in (path, *(path + side for side in sides)):
            for other, other_path in seen:
                try:
                    same = os.path.samefile(written, other_path)
                except OSError:  # one of them does not exist yet
                    same = os.path.realpath(written) == os.path.realpath(other_path)
                if same:
                    what = "is" if written == path else f"writes {written},"
                    raise UsageError(
                        f"{flag} {path} {what} the same file as {other} {other_path}; "
                        "an output never overwrites an input or another output"
                    )
        seen.append((flag, path))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_overwrites(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        genclient = sys.modules.get(f"{__package__}.genclient")  # loaded if it raised a GenerationError
        if not isinstance(exc, (ValueError, OSError, getattr(genclient, "GenerationError", ValueError))):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
