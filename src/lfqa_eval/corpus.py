"""Corpus loading, validation, span projection, and granularity classification.

Corpus files are UTF-8 JSON lines, one record per line:

    {"id": "q1",
     "domain": "law",
     "question": "...",
     "answers": [{"source": "human", "text": "..."},
                 {"source": "model", "text": "..."}],
     "annotations": [{"aspect": "completeness",
                      "target": {"answer": 0},          # or "question"
                      "span": {"start": 10, "end": 42},  # or {"whole_answer": true}
                      "justification": "...",
                      "annotator": "a1"}],
     "preferences": [{"annotator": "a1", "choice": 1, "justification": "..."}]}

Every JSON-lines input, the corpus and each side file alike, is opened by
``open_jsonl`` and split at LF, CRLF or a lone CR; ``json_object`` turns each
non-blank line into its object, or names why it cannot: not UTF-8, malformed
JSON, or not an object. The caller puts the line number in front.

Loaded records are immutable: each type is a ``NamedTuple``, whose fields
cannot be reassigned, and nothing in the package changes the lists a record
holds. They are safe to share across threads. ``read_corpus`` yields records
one at a time, so a caller that needs no random access holds one record.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .models import (
    Answer,
    Aspect,
    Domain,
    ErrorAnnotation,
    PreferenceJudgment,
    QARecord,
    SentenceLabeling,
    SentenceSpan,
    Source,
    SpanGranularity,
)
from .segment import segment_sentences


class CorpusError(ValueError):
    """Malformed corpus or side-file content."""


# ---------------------------------------------------------------------------
# Record (de)serialization


_ABSENT = object()
_KIND_NAMES = {int: "an integer >= 0", str: "a string", list: "a list", dict: "an object"}
_MEMBERS = {kind: {m.value: m for m in kind} for kind in (Aspect, Domain, Source)}


def read_field(obj: dict, key: str, kind: type, where, default=_ABSENT):
    """obj[key] as kind, or default when absent; else a CorpusError naming where, key, value.

    An int is an index or offset: a JSON number >= 0 with an integral value, so
    ``1.0`` reads as 1 and ``true``, ``"1"`` and ``-1`` do not. An Enum kind takes
    one of its values; str, list and dict must match exactly. ``where`` is a
    string, or a function giving it that is called only when the field fails.
    """
    value = obj.get(key, _ABSENT)
    if type(value) is kind and (kind is not int or value >= 0):
        return value
    members = _MEMBERS.get(kind)
    if members is not None and type(value) is str and value in members:
        return members[value]
    if value is _ABSENT and default is not _ABSENT:
        return default
    if kind is int and type(value) is float and value >= 0 and value.is_integer():
        return int(value)
    if callable(where):
        where = where()
    if value is _ABSENT:
        raise CorpusError(f"{where}: {key} is missing")
    name = _KIND_NAMES.get(kind) or "one of: " + ", ".join(m.value for m in kind)
    raise CorpusError(f"{where}: {key} {value!r} is not {name}")


def _parse_annotation(obj: dict, where) -> ErrorAnnotation:
    """One annotation; where() names it in an error."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where()}: annotation must be an object")
    aspect = read_field(obj, "aspect", Aspect, where)

    target = obj.get("target")
    if target == "question":
        answer_index = None
    elif isinstance(target, dict):
        answer_index = read_field(target, "answer", int, lambda: f"{where()} target")
    else:
        raise CorpusError(f"{where()}: target {target!r} is not \"question\" or {{\"answer\": <index>}}")

    raw_span = read_field(obj, "span", dict, where)
    if raw_span.get("whole_answer") is True:
        span = None
    else:
        sw = lambda: f"{where()} span"  # noqa: E731
        span = (read_field(raw_span, "start", int, sw), read_field(raw_span, "end", int, sw))

    justification = read_field(obj, "justification", str, where, "")
    annotator = read_field(obj, "annotator", str, where, "")
    return ErrorAnnotation(aspect, answer_index, span, justification, annotator)


def record_from_dict(obj: dict) -> QARecord:
    """Parse one corpus line; raises CorpusError naming the offending field.

    Each place is named by a function, formatted only when a field there fails.
    """
    if not isinstance(obj, dict):
        raise CorpusError("record must be a JSON object")
    rid = read_field(obj, "id", str, "record")
    where = f"record {rid!r}" if rid else "record"
    domain = read_field(obj, "domain", Domain, where)
    question = read_field(obj, "question", str, where)

    answers = []
    for i, a in enumerate(read_field(obj, "answers", list, where)):
        aw = lambda: f"{where} answers[{i}]"  # noqa: E731
        if not isinstance(a, dict):
            raise CorpusError(f"{aw()}: answer must be an object")
        answers.append(Answer(read_field(a, "source", Source, aw), read_field(a, "text", str, aw)))

    annotations = [
        _parse_annotation(a, lambda: f"{where} annotations[{i}]")
        for i, a in enumerate(read_field(obj, "annotations", list, where, []))
    ]

    preferences = []
    for i, p in enumerate(read_field(obj, "preferences", list, where, [])):
        pw = lambda: f"{where} preferences[{i}]"  # noqa: E731
        if not isinstance(p, dict):
            raise CorpusError(f"{pw()}: preference must be an object")
        annotator = read_field(p, "annotator", str, pw, "")
        choice = read_field(p, "choice", int, pw)
        justification = read_field(p, "justification", str, pw, "")
        preferences.append(PreferenceJudgment(annotator, choice, justification))

    return QARecord(rid, domain, question, answers, annotations, preferences)


def record_to_dict(record: QARecord) -> dict:
    def ann(a: ErrorAnnotation) -> dict:
        return {
            "aspect": a.aspect.value,
            "target": "question" if a.answer_index is None else {"answer": a.answer_index},
            "span": {"whole_answer": True}
            if a.span is None
            else {"start": a.span[0], "end": a.span[1]},
            "justification": a.justification,
            "annotator": a.annotator,
        }

    return {
        "id": record.id,
        "domain": record.domain.value,
        "question": record.question,
        "answers": [{"source": a.source.value, "text": a.text} for a in record.answers],
        "annotations": [ann(a) for a in record.annotations],
        "preferences": [
            {"annotator": p.annotator, "choice": p.choice, "justification": p.justification}
            for p in record.preferences
        ],
    }


# ---------------------------------------------------------------------------
# Record validation


def validate_record(record: QARecord) -> list[str]:
    """Return every invariant violation in the record; empty means valid."""
    violations: list[str] = []
    if not record.id:
        violations.append("id is empty")
    if not record.answers:
        violations.append("record has no answers")
    for i, answer in enumerate(record.answers):
        if not answer.text.strip():
            violations.append(f"answers[{i}]: text is empty")

    for i, ann in enumerate(record.annotations):
        where = f"annotations[{i}] ({ann.aspect.value})"
        if ann.aspect is Aspect.QUESTION_MISCONCEPTION:
            if ann.answer_index is not None:
                violations.append(f"{where}: must target the question")
                continue
            target_text = record.question
        else:
            if ann.answer_index is None:
                violations.append(f"{where}: must target an answer")
                continue
            if not 0 <= ann.answer_index < len(record.answers):
                violations.append(
                    f"{where}: answer index {ann.answer_index} out of range"
                )
                continue
            target_text = record.answers[ann.answer_index].text
        if ann.span is None:
            if ann.answer_index is None:
                violations.append(f"{where}: whole_answer cannot target the question")
            continue
        start, end = ann.span
        if not (0 <= start < end <= len(target_text)):
            violations.append(
                f"{where}: span [{start}, {end}) out of bounds for length {len(target_text)}"
            )

    for i, pref in enumerate(record.preferences):
        if not 0 <= pref.choice < len(record.answers):
            violations.append(f"preferences[{i}]: choice {pref.choice} out of range")

    return violations


# ---------------------------------------------------------------------------
# Corpus I/O


def open_jsonl(path: str | Path) -> TextIO:
    """A JSON-lines input as UTF-8 text, each byte that is not UTF-8 read as a lone
    surrogate, so that json_object names its line instead of the codec failing the file."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def json_object(line: str) -> dict:
    """The object one non-blank line of open_jsonl holds; else a CorpusError naming no line."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate open_jsonl made of a byte that is not UTF-8
        raise CorpusError("not UTF-8") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise CorpusError("expected a JSON object")
    return obj


def iter_corpus_records(
    path: str | Path,
) -> Iterator[tuple[int, QARecord | None, list[str]]]:
    """Yield (line_number, record, problems) for every non-blank line.

    ``record`` is None when the line does not parse; ``problems`` lists what
    is wrong with the line in the order it was found (a duplicate id before
    the record's own violations), each without the line prefix.
    """
    seen: dict[str, int] = {}
    with open_jsonl(path) as handle:
        for ln, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = record_from_dict(json_object(line))
            except CorpusError as exc:
                yield ln, None, [str(exc)]
                continue
            problems = []
            if record.id in seen:
                problems.append(
                    f"duplicate id {record.id!r} (first seen on line {seen[record.id]})"
                )
            else:
                seen[record.id] = ln
            problems.extend(f"record {record.id!r}: {v}" for v in validate_record(record))
            yield ln, record, problems


def read_corpus(path: str | Path) -> Iterator[QARecord]:
    """Yield each record of a corpus file in order; its first violation raises.

    The CorpusError names the line, so a caller that stops at it has seen only
    the records before that line.
    """
    for ln, record, problems in iter_corpus_records(path):
        if problems:
            raise CorpusError(f"line {ln}: {problems[0]}")
        yield record


def load_corpus(path: str | Path) -> list[QARecord]:
    """Load and validate a corpus file; any violation aborts the load."""
    return list(read_corpus(path))


def save_corpus(records: Iterable[QARecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Span projection and granularity


def project_spans(
    text: str,
    sentences: list[SentenceSpan],
    annotations: list[ErrorAnnotation],
    aspect: Aspect,
) -> SentenceLabeling:
    """Project character-offset annotations onto sentence labels.

    A sentence is an error iff some annotation span intersects it (a
    whole-answer annotation intersects every sentence); each error sentence
    carries the justification of every annotation that touched it, in
    annotation order.
    """
    errors = [False] * len(sentences)
    justifications: list[list[str]] = [[] for _ in sentences]
    for ann in annotations:
        if ann.aspect is not aspect:
            raise ValueError(
                f"annotation aspect {ann.aspect.value} does not match {aspect.value}"
            )
        if ann.span is None:
            touched = range(len(sentences))
        else:
            start, end = ann.span
            if not (0 <= start < end <= len(text)):
                raise ValueError(f"span [{start}, {end}) out of bounds")
            touched = [s.index for s in sentences if s.intersects(start, end)]
        for si in touched:
            errors[si] = True
            justifications[si].append(ann.justification)
    return SentenceLabeling(aspect=aspect, errors=errors, justifications=justifications)


_SNAP_SLACK = 2  # max codepoints an annotator boundary may miss a sentence edge by

_category = None  # unicodedata.category, imported when the first span is classified


def _snappable(ch: str) -> bool:
    return ch.isspace() or _category(ch)[0] in ("P", "S")


def _snap(pos: int, targets: Iterable[int], text: str) -> int:
    best, best_dist = pos, _SNAP_SLACK + 1
    for t in targets:
        dist = abs(t - pos)
        if dist < best_dist:
            lo, hi = min(t, pos), max(t, pos)
            if all(_snappable(ch) for ch in text[lo:hi]):
                best, best_dist = t, dist
    return best


def classify_granularity(
    start: int,
    end: int,
    sentences: list[SentenceSpan],
    text: str,
) -> SpanGranularity:
    """Classify a span as phrase, sentence, or multi_sentence.

    Span boundaries within 2 codepoints of a sentence edge (crossing only
    whitespace/punctuation) snap to that edge first, so selections that
    drag a trailing space or quote still count as full sentences.
    """
    global _category
    if not (0 <= start < end <= len(text)):
        raise ValueError(f"span [{start}, {end}) out of bounds for length {len(text)}")
    if _category is None:
        from unicodedata import category as _category
    start = _snap(start, (s.start for s in sentences), text)
    end = _snap(end, (s.end for s in sentences), text)
    touched = [s for s in sentences if s.intersects(start, end)]
    if len(touched) >= 2:
        return SpanGranularity.MULTI_SENTENCE
    if len(touched) == 1 and start == touched[0].start and end == touched[0].end:
        return SpanGranularity.SENTENCE
    return SpanGranularity.PHRASE


def label_aspects(
    record: QARecord, answer_index: int, aspects: Iterable[Aspect]
) -> dict[Aspect, SentenceLabeling]:
    """Segment one answer once and project its annotations for each aspect."""
    text = record.answers[answer_index].text
    sentences = segment_sentences(text)
    return {
        aspect: project_spans(
            text, sentences, record.annotations_for(aspect, answer_index), aspect
        )
        for aspect in aspects
    }


def label_answer(record: QARecord, answer_index: int, aspect: Aspect) -> SentenceLabeling:
    """Segment one answer and project its annotations for one aspect."""
    return label_aspects(record, answer_index, (aspect,))[aspect]
