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

Configuration is a plain-text ``key = value`` file ('#' comments allowed);
command-line flags override file values, which override the defaults.
Credentials are only ever read from the environment variable a backend's
``auth_env`` key names.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .corpus import (
    Corpus,
    CorpusError,
    classify_granularity,
    iter_corpus_records,
    load_corpus,
    read_field,
)
from .evalmetrics import (
    DEFAULT_WEIGHTS,
    DetectionWeights,
    ErrorScoreRecord,
    PredictionError,
    SupportJudgment,
    correction_prf,
    detection_eval,
    error_report,
    flag_map,
    load_error_scores,
    normalize_verdict,
    selfcheck_aggregate,
)
from .feedback import (
    DEFAULT_N_SAMPLES,
    LOW_CONFIDENCE_THRESHOLD,
    TAG_COMPLETE,
    TAG_INCOMPLETE,
    FeedbackResult,
    run_feedback,
)
from .genclient import BackendConfig, GenerationClient, GenerationError
from .models import Aspect, QARecord, SentenceSpan, SpanGranularity
from .refine import REFINE_TEMPERATURE, RefineMode, refine_answer, run_eir
from .scoring import domain_report, format_aspect_table, format_domain_table, preference_report
from .segment import segment_sentences


class ConfigError(ValueError):
    pass


class UsageError(ValueError):
    """A command line that parses but asks for nothing that exists (exit 2)."""


# ---------------------------------------------------------------------------
# Configuration


_SCALAR_KEYS = {
    "n_samples": int,
    "consistency_threshold": float,
    "weight_exact": float,
    "weight_adjacent": float,
    "weight_different": float,
    "workers": int,
}

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

_ROLES = ("feedback", "refine")


@dataclass
class CliConfig:
    n_samples: int = DEFAULT_N_SAMPLES
    consistency_threshold: float = LOW_CONFIDENCE_THRESHOLD
    weights: DetectionWeights = DEFAULT_WEIGHTS
    workers: int | None = None  # cap on the runner's threads, None = none; kept for the benchmark
    backends: dict | None = None          # role -> BackendConfig
    temperatures: dict | None = None      # role -> float
    max_tokens: dict | None = None        # role -> int

    def __post_init__(self):
        self.backends = self.backends or {}
        self.temperatures = self.temperatures or {}
        self.max_tokens = self.max_tokens or {}
        if not 0.0 <= self.consistency_threshold <= 1.0:
            raise ConfigError("consistency_threshold must be in [0, 1]")
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


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {ln}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config(path: str | None, overrides: dict | None = None) -> CliConfig:
    """Defaults <- config file <- overrides, rejecting unknown keys."""
    values: dict[str, str] = {}
    if path:
        values.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
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

    backends: dict[str, BackendConfig] = {}
    temperatures: dict[str, float] = {}
    max_tokens: dict[str, int] = {}
    for role, settings in role_settings.items():
        if "temperature" in settings:
            value = temperatures[role] = settings.pop("temperature")
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{role}.temperature must be a finite number >= 0, got {value}")
        if "max_tokens" in settings:
            value = max_tokens[role] = settings.pop("max_tokens")
            if value < 1:
                raise ConfigError(f"{role}.max_tokens must be at least 1, got {value}")
        if settings and "kind" not in settings:
            raise ConfigError(f"backend '{role}' is configured but has no '{role}.kind'")
        if settings:
            backend = BackendConfig(**settings)
            try:
                backend.validate()
            except ValueError as exc:
                raise ConfigError(f"backend '{role}': {exc}") from None
            backends[role] = backend

    weights = {}
    for name in ("exact", "adjacent", "different"):
        value = weights[name] = scalars.pop(f"weight_{name}", getattr(DEFAULT_WEIGHTS, name))
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"weight_{name} must be a finite number >= 0, got {value}")
    return CliConfig(
        weights=DetectionWeights(**weights),
        backends=backends,
        temperatures=temperatures,
        max_tokens=max_tokens,
        **scalars,
    )


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
    scripted = BackendConfig(kind="scripted", fixture_dir=fixture_dir)
    config.backends = {role: scripted for role in _ROLES}
    return config


def _client_for(config: CliConfig, role: str) -> GenerationClient:
    backend = config.backends.get(role)
    if backend is None:
        raise ConfigError(
            f"no '{role}' backend configured; set {role}.kind in the config "
            "file or pass --backend scripted:DIR"
        )
    return GenerationClient(backend)


def _temperature_for(config: CliConfig, role: str) -> float:
    backend = config.backends.get(role)
    if role in config.temperatures:
        return config.temperatures[role]
    if backend is not None and backend.kind == "scripted":
        return 0.0  # fixtures are keyed by prompt only
    if role == "refine":
        return REFINE_TEMPERATURE
    raise ConfigError(
        f"{role}.temperature is required for http backends (no default)"
    )


# ---------------------------------------------------------------------------
# Small I/O helpers


def _parse_jsonl(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line; any other line is a CorpusError."""
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed JSON: {exc.msg}", line=ln) from None
        if not isinstance(obj, dict):
            raise CorpusError("expected a JSON object", line=ln)
        yield ln, obj


@contextmanager
def _errors_name(source: str) -> Iterator[None]:
    """Prefix each CorpusError raised inside with source, e.g. '--judgments PATH'."""
    try:
        yield
    except CorpusError as exc:
        raise CorpusError(f"{source}: {exc}") from None


def _keyed_lines(source: str, lines: Iterable[str], parse: Callable[[dict, int], tuple]) -> dict:
    """{key: value} over a file keyed by record, parse(obj, line) giving each pair.

    Every line needs a non-empty string record_id, checked before parse, and a key
    no earlier line has; each error names source, e.g. '--judgments PATH', and the line.
    """
    values: dict = {}
    first_seen: dict = {}
    with _errors_name(source):
        for ln, obj in _parse_jsonl(lines):
            record_id = obj.get("record_id")
            if record_id is None:
                raise CorpusError("line has no record_id", line=ln)
            if type(record_id) is not str or not record_id:
                raise CorpusError(f"record_id {record_id!r} is not a non-empty string", line=ln)
            try:
                key, value = parse(obj, ln)
            except CorpusError as exc:  # read_field's errors name no line
                raise exc if exc.line else CorpusError(str(exc), line=ln) from None
            if key in first_seen:
                message = f"duplicate key {key!r} (first seen on line {first_seen[key]})"
                raise CorpusError(message, line=ln)
            first_seen[key] = ln
            values[key] = value
    return values


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


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


def span_granularity_stats(corpus: Corpus) -> dict[str, dict]:
    """Per-aspect granularity distribution; whole-answer marks span the text.

    Only the texts an annotation targets are segmented, each once.
    """
    counts: dict[Aspect, Counter] = {a: Counter() for a in Aspect}
    for record in corpus:
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
        pct = {
            g.value: 100.0 * counts[aspect][g] / total for g in SpanGranularity
        }
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
    return rows


def answer_length_histogram(corpus: Corpus) -> dict[str, Counter]:
    """Answers per source and length bucket, a bucket being its index in word order."""
    histogram: dict[str, Counter] = defaultdict(Counter)
    for record in corpus:
        for answer in record.answers:
            bucket = min(len(answer.text.split()) // _LENGTH_BUCKET, _LENGTH_BUCKETS)
            histogram[answer.source.value][bucket] += 1
    return dict(histogram)


def _cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    spans = span_granularity_stats(corpus)
    lengths = answer_length_histogram(corpus)

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
            _dump(
                {"kind": "answer_length", "source": source, "bucket": _bucket_label(b), "count": n}
            )
            for source, counter in sorted(lengths.items())
            for b, n in sorted(counter.items())
        ]
        _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# score / agreement


def _cmd_score(args) -> int:
    corpus = load_corpus(args.corpus)
    report = domain_report(corpus)
    print(format_domain_table(report))
    print()
    print(format_aspect_table(report))
    if args.out:
        _write_lines(args.out, [_dump(card.to_dict()) for card in report.cards])
    if args.report:
        _write_lines(
            args.report,
            [_dump(row.to_dict()) for row in report.rows + [report.average]],
        )
    return 0


def _cmd_agreement(args) -> int:
    report = preference_report(load_corpus(args.corpus))
    header = f"{'Category':<14}{'Samples':>8}{'Alpha':>8}"
    print(header)
    print("-" * len(header))
    rows = []
    for row in report.rows + [report.average]:
        alpha = "-" if row.alpha is None else f"{row.alpha:.2f}"
        print(f"{row.domain:<14}{row.n_records:>8}{alpha:>8}")
        rows.append(
            _dump(
                {"domain": row.domain, "n_records": row.n_records, "alpha": row.alpha}
            )
        )
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


def _kept_lines(path: str, expected: dict[str, object]) -> dict[tuple[str, int], str]:
    """One file's lines by (record_id, answer_index), each checked against this run."""
    if not Path(path).exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    # A kill mid-write can leave a last line with no newline: drop it if it does not parse.
    if lines and not lines[-1].endswith("\n"):
        try:
            json.loads(lines[-1])
        except json.JSONDecodeError:
            warning = f"warning: {path}: line {len(lines)}: torn last line dropped and recomputed"
            print(warning, file=sys.stderr)
            lines.pop()

    def parse(obj: dict, ln: int) -> tuple[tuple[str, int], str]:
        record_id = obj["record_id"]
        key = (record_id, read_field(obj, "answer_index", int, f"record '{record_id}'", 0))
        audited = "selected_raw" in obj or "prompt" in obj  # feedback's, refine's audit field
        for dotted, value in expected.items():
            found = audited if dotted == "audit" else _field(obj, dotted)
            if found != value:
                raise UsageError(
                    f"{path}: line {ln}: record '{key[0]}' answer {key[1]} has "
                    f"{dotted} {found!r} but this run has {value!r}; "
                    "--resume keeps only lines of the same run"
                )
        return key, _dump(obj)

    return _keyed_lines(path, lines, parse)


def _existing_lines(out: str, expected: dict[str, object]) -> dict[tuple[str, int], str]:
    """The lines --resume keeps: OUT's, then OUT.partial's, which win.

    ``expected`` maps dotted keys of a line, and "audit", to this run's values;
    a kept line that differs comes from another run and is a UsageError.
    """
    return {**_kept_lines(out, expected), **_kept_lines(f"{out}.partial", expected)}


def _run_batch(
    args, config: CliConfig, clients: list[GenerationClient], expected: dict[str, object], work
) -> int:
    """Run work(record, answer_index) -> a line's fields over the corpus.

    Each line leads with the record_id and answer_index that --resume keys by.
    Lines stream in corpus order to OUT.partial, each flushed once written,
    and the finished file then replaces --out, so a killed run leaves --out
    as it was and OUT.partial holding whole lines for --resume. A resumed
    run that finds OUT.partial first folds every kept line into --out, so
    truncating OUT.partial loses none of them if it is killed too. Records run
    on one thread per connection slot, the sum of max_in_flight over the http
    clients, capped at workers when it is set; a scripted client has no slot,
    and one thread or fewer runs the records inline. Failures are reported
    per record and turn the exit code to 3.
    """
    selector = _parse_answer_selector(args.answer)
    corpus = load_corpus(args.corpus)
    targets = [
        (record, idx)
        for record in corpus
        for idx in _select_answers(record, selector)
    ]
    if not targets and len(corpus):
        if isinstance(selector, int):
            largest = max(len(record.answers) for record in corpus) - 1
            hint = f"the largest answer index is {largest}"
        else:
            hint = f"no record has a {selector} answer"
        raise UsageError(f"--answer {args.answer} selects no answer in {args.corpus}; {hint}")
    existing = _existing_lines(args.out, {**expected, "audit": args.audit}) if args.resume else {}
    todo = [(record, idx) for record, idx in targets if (record.id, idx) not in existing]
    partial = f"{args.out}.partial"
    if existing and Path(partial).exists():
        folded = f"{args.out}.tmp"
        _write_lines(folded, [existing[r.id, i] for r, i in targets if (r.id, i) in existing])
        os.replace(folded, args.out)

    def attempt(target: tuple[QARecord, int]) -> str | Exception:
        record, idx = target
        try:
            return _dump({"record_id": record.id, "answer_index": idx, **work(record, idx)})
        except Exception as exc:  # per-record isolation
            return exc

    failures: list[str] = []
    with ExitStack() as stack:
        handle = stack.enter_context(open(partial, "w", encoding="utf-8"))
        threads = sum(c.config.max_in_flight for c in clients if c.config.kind == "http")
        threads = min(threads, config.workers or threads)
        if threads > 1:
            results = stack.enter_context(ThreadPoolExecutor(threads)).map(attempt, todo)
        else:
            results = map(attempt, todo)
        for record, idx in targets:
            line = existing.get((record.id, idx))
            if line is None:
                line = next(results)
                if isinstance(line, Exception):
                    failures.append(f"{record.id}#{idx}: {line}")
                    continue
            handle.write(line + "\n")
            handle.flush()
    os.replace(partial, args.out)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(
        f"{len(targets) - len(failures)} results written to {args.out}"
        + (f", {len(failures)} failed" if failures else "")
    )
    return 3 if failures else 0


def _feedback_step(
    config: CliConfig, client: GenerationClient
) -> Callable[[QARecord, int], FeedbackResult]:
    """feedback_for(record, answer_index) -> FeedbackResult under this run's settings."""
    temperature = _temperature_for(config, "feedback")

    def feedback_for(record: QARecord, idx: int) -> FeedbackResult:
        return run_feedback(
            record.question,
            record.answers[idx].text,
            client,
            config.n_samples,
            temperature=temperature,
            max_tokens=config.max_tokens.get("feedback"),
            low_confidence_threshold=config.consistency_threshold,
        )

    return feedback_for


def _cmd_feedback(args) -> int:
    config = _config_from_args(args)
    with _client_for(config, "feedback") as client:
        feedback_for = _feedback_step(config, client)

        def work(record: QARecord, idx: int) -> dict:
            return feedback_for(record, idx).to_dict(args.audit)

        return _run_batch(args, config, [client], {"n_sampled": config.n_samples}, work)


def _cmd_refine(args) -> int:
    config = _config_from_args(args)
    mode = {"improve": RefineMode.IMPROVE, "generic": RefineMode.GENERIC, "eir": RefineMode.ERROR_INFORMED}[args.mode]
    expected: dict[str, object] = {"mode": mode.value}
    with ExitStack() as stack:
        client = stack.enter_context(_client_for(config, "refine"))
        settings = {
            "temperature": _temperature_for(config, "refine"),
            "max_tokens": config.max_tokens.get("refine"),
        }
        clients = [client]
        if mode is RefineMode.ERROR_INFORMED:
            feedback_client = stack.enter_context(_client_for(config, "feedback"))
            feedback_for = _feedback_step(config, feedback_client)
            clients.append(feedback_client)
            expected["feedback.n_sampled"] = config.n_samples

        def work(record: QARecord, idx: int) -> dict:
            answer = record.answers[idx].text
            if mode is RefineMode.ERROR_INFORMED:
                result = run_eir(
                    record.question, answer, feedback_for(record, idx), client, **settings
                )
            else:
                result = refine_answer(record.question, answer, mode, None, client, **settings)
            return result.to_dict(audit=args.audit)

        return _run_batch(args, config, clients, expected, work)


# ---------------------------------------------------------------------------
# eval-detect / eval-correct / selfcheck


def _cmd_eval_detect(args) -> int:
    config = _config_from_args(args)
    corpus = load_corpus(args.corpus)
    lines: dict[tuple[str, int], int] = {}

    def prediction(obj: dict, ln: int) -> tuple[tuple[str, int], list[bool]]:
        record_id = obj["record_id"]
        idx = read_field(obj, "answer_index", int, f"record '{record_id}'", 0)
        record = corpus.get(record_id)
        if record is not None and idx >= len(record.answers):
            message = f"answer_index {idx} out of range 0..{len(record.answers) - 1}"
            raise CorpusError(f"record '{record_id}': {message}")
        selected = obj.get("selected") if "selected" in obj else obj
        tags = selected.get("tags") if isinstance(selected, dict) else None
        if not isinstance(tags, list):
            raise CorpusError(f"prediction for '{record_id}' has no tags")
        for tag in tags:
            if tag not in (TAG_COMPLETE, TAG_INCOMPLETE):
                message = f"record '{record_id}': tag {tag!r} is neither Complete nor Incomplete"
                raise CorpusError(message)
        lines[record_id, idx] = ln
        return (record_id, idx), [tag == TAG_INCOMPLETE for tag in tags]

    source = f"--predictions {args.predictions}"
    with open(args.predictions, encoding="utf-8") as handle:
        predictions = _keyed_lines(source, handle, prediction)
    with _errors_name(source):
        try:
            report = detection_eval(corpus, predictions, weights=config.weights, invert=args.invert)
        except PredictionError as exc:
            raise CorpusError(str(exc), line=lines[exc.key]) from None
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


def _read_scores(flag: str, path: str) -> list[ErrorScoreRecord]:
    """One score file; each of its errors names the flag, the path and the line."""

    def score(obj: dict, ln: int) -> tuple[str, ErrorScoreRecord]:
        (record,) = load_error_scores([(ln, obj)])
        return record.record_id, record

    with open(path, encoding="utf-8") as handle:
        scores = list(_keyed_lines(f"{flag} {path}", handle, score).values())
    if not scores:
        raise CorpusError(f"{flag} {path}: no score records")
    return scores


def _cmd_eval_correct(args) -> int:
    baseline = _read_scores("--baseline", args.baseline)
    refined = _read_scores("--refined", args.refined)
    base_pct, base_mean = error_report(baseline)
    ref_pct, ref_mean = error_report(refined)
    correction = correction_prf(flag_map(baseline), flag_map(refined))

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
        _write_lines(
            args.out,
            [
                _dump(
                    {
                        "kind": "error_report",
                        "which": "baseline",
                        "pct_error_samples": base_pct,
                        "mean_error_score": base_mean,
                    }
                ),
                _dump(
                    {
                        "kind": "error_report",
                        "which": "refined",
                        "pct_error_samples": ref_pct,
                        "mean_error_score": ref_mean,
                    }
                ),
                _dump(
                    {
                        "kind": "correction",
                        **correction.to_dict(),
                        "definitions": _CORRECTION_DEFINITIONS,
                    }
                ),
            ],
        )
    return 0


def _cmd_selfcheck(args) -> int:
    grouped: dict[str, list[SupportJudgment]] = defaultdict(list)

    def judgment(obj: dict, ln: int) -> tuple[tuple[str, int], None]:
        """Adds the line's judgment to grouped, in first-seen record order."""
        record_id = obj["record_id"]
        where = f"record '{record_id}'"
        verdicts = read_field(obj, "verdicts", list, where)
        if not verdicts:
            raise CorpusError(f"{where}: verdicts [] is empty")
        sentence_index = read_field(obj, "sentence_index", int, where, len(grouped[record_id]))
        for verdict in verdicts:
            try:
                normalize_verdict(str(verdict))
            except ValueError as exc:
                raise CorpusError(f"{where}, sentence {sentence_index}: {exc}") from None
        grouped[record_id].append(SupportJudgment(sentence_index, tuple(map(str, verdicts))))
        return (record_id, sentence_index), None

    with open(args.judgments, encoding="utf-8") as handle:
        _keyed_lines(f"--judgments {args.judgments}", handle, judgment)

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
    overrides = {}
    if getattr(args, "n_samples", None) is not None:
        overrides["n_samples"] = args.n_samples
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    config = load_config(getattr(args, "config", None), overrides)
    return _apply_backend_flag(config, getattr(args, "backend", None))


def _add_batch_options(sub) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--backend", help="backend override, e.g. scripted:fixtures/")
    sub.add_argument("--answer", default="all", help="all | human | model | answer index")
    sub.add_argument("--n-samples", dest="n_samples", type=int, help="samples per answer")
    sub.add_argument(
        "--workers",
        type=int,
        help="cap on concurrent records, kept for the benchmark's fixed thread "
        "count; default one per connection slot (the sum of max_in_flight "
        "over the http backends)",
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
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--invert", action="store_true", help="classify gold against predictions")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
