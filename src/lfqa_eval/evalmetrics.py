"""Detection and correction metrics plus sample-consistency aggregation.

Detection compares predicted erroneous sentence indices against gold ones.
Each prediction lands in exactly one bucket, checked in priority order:
exact (index in gold), adjacent (a gold index is one off), different.
Weighted accuracy combines the buckets with weights 1.0/0.5/0.1 over the
total number of predictions.

Correction works at the record level on flagged/clean verdicts read from
external error-score files: a record flagged before refinement and clean after
counts as corrected (TP); still flagged after is a miss (FN); newly flagged
is an introduced error (FP).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import CorpusError, label_answer
from .models import Aspect, QARecord


@dataclass
class DetectionCounts:
    exact: int = 0
    adjacent: int = 0
    different: int = 0

    @property
    def total_predicted(self) -> int:
        return self.exact + self.adjacent + self.different

    def add(self, other: "DetectionCounts") -> None:
        self.exact += other.exact
        self.adjacent += other.adjacent
        self.different += other.different


def classify_detections(
    predicted: Iterable[int], gold: Iterable[int], n_sentences: int
) -> DetectionCounts:
    """Bucket each predicted index against gold: exact > adjacent > different."""
    predicted = set(predicted)
    gold = set(gold)
    for idx in predicted | gold:
        if not 0 <= idx < n_sentences:
            raise ValueError(f"sentence index {idx} out of range 0..{n_sentences - 1}")
    counts = DetectionCounts()
    for p in predicted:
        if p in gold:
            counts.exact += 1
        elif (p - 1) in gold or (p + 1) in gold:
            counts.adjacent += 1
        else:
            counts.different += 1
    return counts


def weighted_accuracy(counts: DetectionCounts) -> float:
    """Predictions weighted 1.0/0.5/0.1 by bucket over their number; undefined with none."""
    if counts.total_predicted == 0:
        raise ValueError("no predictions: weighted accuracy undefined")
    return (
        1.0 * counts.exact + 0.5 * counts.adjacent + 0.1 * counts.different
    ) / counts.total_predicted


# ---------------------------------------------------------------------------
# Correction precision/recall/F1


@dataclass
class CorrectionReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    degenerate: bool  # no record was flagged at baseline

    def to_dict(self) -> dict:
        return asdict(self)


def correction_prf(
    baseline: Mapping[str, bool], refined: Mapping[str, bool]
) -> CorrectionReport:
    """Score error correction between baseline and refined flag maps.

    TP: flagged at baseline, clean after. FN: flagged in both. FP: clean at
    baseline, flagged after (an introduced error). 0/0 ratios collapse to 0.
    """
    if set(baseline) != set(refined):
        missing = set(baseline) ^ set(refined)
        raise ValueError(f"baseline/refined key sets differ on {len(missing)} ids")
    tp = sum(1 for k, flagged in baseline.items() if flagged and not refined[k])
    fn = sum(1 for k, flagged in baseline.items() if flagged and refined[k])
    fp = sum(1 for k, flagged in baseline.items() if not flagged and refined[k])
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return CorrectionReport(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        degenerate=tp + fn == 0,
    )


# ---------------------------------------------------------------------------
# Error-score reporting


@dataclass(frozen=True)
class ErrorScoreRecord:
    record_id: str
    error_score: float

    def __post_init__(self):
        if not 0.0 <= self.error_score < math.inf:
            raise ValueError(f"error_score must be a finite number >= 0, got {self.error_score}")

    @property
    def flagged(self) -> bool:
        return self.error_score > 0


def error_report(scores: Sequence[ErrorScoreRecord]) -> tuple[float, float]:
    """(% of flagged records, mean error score over all records)."""
    if not scores:
        raise ValueError("no score records")
    flagged = sum(1 for s in scores if s.flagged)
    mean = sum(s.error_score for s in scores) / len(scores)
    return 100.0 * flagged / len(scores), mean


# ---------------------------------------------------------------------------
# Sample-consistency (support) aggregation


VERDICT_MAPPING = {"yes": 1.0, "no": 0.0, "not_applicable": 0.5}
_VERDICT_ALIASES = {"n/a": "not_applicable", "na": "not_applicable"}


def normalize_verdict(raw: str) -> str:
    verdict = raw.strip().lower()
    verdict = _VERDICT_ALIASES.get(verdict, verdict)
    if verdict not in VERDICT_MAPPING:
        raise ValueError(f"unknown verdict {raw!r}")
    return verdict


@dataclass(frozen=True)
class SupportJudgment:
    """Per-sample yes/no/not_applicable verdicts for one sentence.

    Each verdict is checked and normalised when the judgment is made, so
    ``verdicts`` holds only keys of VERDICT_MAPPING; a verdict that is not a
    string, or none of them, is a ValueError naming the first such one.
    """

    sentence_index: int
    verdicts: tuple[str, ...]

    def __post_init__(self):
        if not self.verdicts:
            raise ValueError("at least one verdict is required")
        normalized = []
        for i, verdict in enumerate(self.verdicts):
            if not isinstance(verdict, str):
                raise ValueError(f"verdicts[{i}] {verdict!r} is not a string")
            normalized.append(normalize_verdict(verdict))
        object.__setattr__(self, "verdicts", tuple(normalized))


@dataclass
class SelfCheckReport:
    per_sentence: list[float]
    answer_support: float
    answer_inconsistency: float  # 1 - support, for consumers that rank by error

    def to_dict(self) -> dict:
        return asdict(self)


def selfcheck_aggregate(judgments: Sequence[SupportJudgment]) -> SelfCheckReport:
    """Average mapped verdicts per sentence, then across the answer.

    Both orientations are reported: support (higher = better supported) and
    its complement.
    """
    if not judgments:
        raise ValueError("no judgments")
    per_sentence = []
    for judgment in judgments:
        mapped = [VERDICT_MAPPING[v] for v in judgment.verdicts]
        per_sentence.append(sum(mapped) / len(mapped))
    support = sum(per_sentence) / len(per_sentence)
    return SelfCheckReport(
        per_sentence=per_sentence,
        answer_support=support,
        answer_inconsistency=1.0 - support,
    )


# ---------------------------------------------------------------------------
# Corpus-level detection evaluation


class PredictionError(CorpusError):
    """A prediction that does not fit its answer, ``key`` = (record_id, answer_index)."""

    def __init__(self, key: tuple[str, int], message: str):
        super().__init__(f"record {key[0]!r} answer {key[1]}: {message}")
        self.key = key


@dataclass
class DetectionEvalReport:
    counts: DetectionCounts
    weighted_accuracy: float | None
    n_records: int          # records actually evaluated
    misses: int             # records with gold errors but no predictions
    skipped: list[str] = field(default_factory=list)  # ids absent from the corpus

    def to_dict(self) -> dict:
        return {
            "exact": self.counts.exact,
            "adjacent": self.counts.adjacent,
            "different": self.counts.different,
            "total_predicted": self.counts.total_predicted,
            "weighted_accuracy": self.weighted_accuracy,
            "n_records": self.n_records,
            "misses": self.misses,
            "skipped": list(self.skipped),
        }


def completeness_gold(records: Iterable[QARecord]) -> dict[str, list[tuple[int, tuple[int, ...]]]]:
    """Per record id, one (sentence count, gold Incomplete sentence indices) per answer.

    Gold labels come from projecting each answer's completeness annotations
    onto its sentences; the table is all ``detection_eval`` needs of a corpus.
    """
    gold = {}
    for record in records:
        answers = []
        for idx in range(len(record.answers)):
            labeling = label_answer(record, idx, Aspect.COMPLETENESS)
            errors = tuple(i for i, err in enumerate(labeling.errors) if err)
            answers.append((labeling.n_sentences, errors))
        gold[record.id] = answers
    return gold


def detection_eval(
    gold: Mapping[str, Sequence[tuple[int, Sequence[int]]]],
    predictions: Iterable[tuple[tuple[str, int], tuple[int, Sequence[int]]]],
) -> DetectionEvalReport:
    """Evaluate predicted Incomplete sentences against annotated gold labels.

    ``gold`` is ``completeness_gold`` of the corpus. ``predictions`` yields
    ``((record_id, answer_index), (tag count, Incomplete sentence indices))``
    pairs, the prediction shaped like a gold entry. Records with gold errors
    but an empty prediction count as misses and stay out of the accuracy
    denominator. Ids absent from the corpus are listed in ``skipped`` in
    prediction order. A tag count that is not the answer's sentence count is
    a PredictionError.
    """
    totals = DetectionCounts()
    misses = 0
    evaluated = 0
    skipped: list[str] = []
    for (record_id, idx), (n_tags, predicted) in predictions:
        answers = gold.get(record_id)
        if answers is None:
            skipped.append(record_id)
            continue
        if not 0 <= idx < len(answers):
            raise CorpusError(f"record {record_id!r}: answer index {idx} out of range")
        n_sentences, errors = answers[idx]
        if n_tags != n_sentences:
            raise PredictionError(
                (record_id, idx),
                f"prediction has {n_tags} tags but the answer has {n_sentences} sentences",
            )
        evaluated += 1
        if errors and not predicted:
            misses += 1
            continue
        totals.add(classify_detections(predicted, errors, n_sentences))
    accuracy = weighted_accuracy(totals) if totals.total_predicted else None
    return DetectionEvalReport(
        counts=totals,
        weighted_accuracy=accuracy,
        n_records=evaluated,
        misses=misses,
        skipped=skipped,
    )
