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

Loaded corpora are immutable in practice (nothing in the package mutates
records) and safe to share across threads.
"""
from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

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
    """Malformed corpus content; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Record (de)serialization


def _require(obj: dict, key: str, kind: type, where: str):
    if key not in obj:
        raise CorpusError(f"{where}: missing field '{key}'")
    value = obj[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise CorpusError(f"{where}: field '{key}' must be {kind.__name__}")
    return value


def _parse_enum(enum_cls, raw: str, key: str, where: str):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise CorpusError(f"{where}: field '{key}' must be one of: {allowed}") from None


def _parse_annotation(obj: dict, where: str) -> ErrorAnnotation:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: annotation must be an object")
    aspect = _parse_enum(Aspect, _require(obj, "aspect", str, where), "aspect", where)

    target = obj.get("target")
    if target == "question":
        answer_index = None
    elif isinstance(target, dict) and isinstance(target.get("answer"), int):
        answer_index = target["answer"]
    else:
        raise CorpusError(f"{where}: field 'target' must be \"question\" or {{\"answer\": <index>}}")

    raw_span = obj.get("span")
    if isinstance(raw_span, dict) and raw_span.get("whole_answer") is True:
        span = None
    elif (
        isinstance(raw_span, dict)
        and isinstance(raw_span.get("start"), int)
        and isinstance(raw_span.get("end"), int)
    ):
        span = (raw_span["start"], raw_span["end"])
    else:
        raise CorpusError(
            f"{where}: field 'span' must be {{\"start\", \"end\"}} or {{\"whole_answer\": true}}"
        )

    return ErrorAnnotation(
        aspect=aspect,
        answer_index=answer_index,
        span=span,
        justification=str(obj.get("justification", "")),
        annotator=str(obj.get("annotator", "")),
    )


def record_from_dict(obj: dict) -> QARecord:
    """Parse one corpus line; raises CorpusError naming the offending field."""
    if not isinstance(obj, dict):
        raise CorpusError("record must be a JSON object")
    rid = _require(obj, "id", str, "record")
    where = f"record '{rid}'" if rid else "record"
    domain = _parse_enum(Domain, _require(obj, "domain", str, where), "domain", where)
    question = _require(obj, "question", str, where)

    raw_answers = _require(obj, "answers", list, where)
    answers = []
    for i, a in enumerate(raw_answers):
        aw = f"{where} answers[{i}]"
        if not isinstance(a, dict):
            raise CorpusError(f"{aw}: answer must be an object")
        source = _parse_enum(Source, _require(a, "source", str, aw), "source", aw)
        answers.append(Answer(source=source, text=_require(a, "text", str, aw)))

    annotations = [
        _parse_annotation(a, f"{where} annotations[{i}]")
        for i, a in enumerate(obj.get("annotations", []))
    ]

    preferences = []
    for i, p in enumerate(obj.get("preferences", [])):
        pw = f"{where} preferences[{i}]"
        if not isinstance(p, dict):
            raise CorpusError(f"{pw}: preference must be an object")
        preferences.append(
            PreferenceJudgment(
                annotator=str(p.get("annotator", "")),
                choice=_require(p, "choice", int, pw),
                justification=str(p.get("justification", "")),
            )
        )

    return QARecord(
        id=rid,
        domain=domain,
        question=question,
        answers=answers,
        annotations=annotations,
        preferences=preferences,
    )


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
# Corpus container + I/O


@dataclass
class Corpus:
    records: list[QARecord] = field(default_factory=list)

    def __post_init__(self):
        self.by_id = {r.id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QARecord]:
        return iter(self.records)

    def get(self, record_id: str) -> QARecord | None:
        return self.by_id.get(record_id)


def iter_corpus_records(
    path: str | Path,
) -> Iterator[tuple[int, QARecord | None, list[str]]]:
    """Yield (line_number, record, problems) for every non-blank line.

    ``record`` is None when the line does not parse; ``problems`` lists what
    is wrong with the line in the order it was found (a duplicate id before
    the record's own violations), each without the line prefix.
    """
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for ln, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = record_from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                yield ln, None, [f"malformed JSON: {exc.msg}"]
                continue
            except CorpusError as exc:
                yield ln, None, [str(exc)]
                continue
            problems = []
            if record.id in seen:
                problems.append(
                    f"duplicate id '{record.id}' (first seen on line {seen[record.id]})"
                )
            else:
                seen[record.id] = ln
            problems.extend(f"record '{record.id}': {v}" for v in validate_record(record))
            yield ln, record, problems


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus file; any violation aborts the load."""
    records: list[QARecord] = []
    for ln, record, problems in iter_corpus_records(path):
        if problems:
            raise CorpusError(problems[0], line=ln)
        records.append(record)
    return Corpus(records)


def save_corpus(corpus: Corpus | Iterable[QARecord], path: str | Path) -> None:
    records = corpus.records if isinstance(corpus, Corpus) else list(corpus)
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


def _snappable(ch: str) -> bool:
    return ch.isspace() or unicodedata.category(ch)[0] in ("P", "S")


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
    if not (0 <= start < end <= len(text)):
        raise ValueError(f"span [{start}, {end}) out of bounds for length {len(text)}")
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
