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

from .corpus import Corpus, CorpusError, label_answer
from .models import Aspect


@dataclass(frozen=True)
class DetectionWeights:
    exact: float = 1.0
    adjacent: float = 0.5
    different: float = 0.1

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in (self.exact, self.adjacent, self.different)):
            raise ValueError("weights must be finite and non-negative")


DEFAULT_WEIGHTS = DetectionWeights()


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


def weighted_accuracy(
    counts: DetectionCounts, weights: DetectionWeights = DEFAULT_WEIGHTS
) -> float:
    """Weighted fraction of predictions per bucket; undefined with none."""
    if counts.total_predicted == 0:
        raise ValueError("no predictions: weighted accuracy undefined")
    return (
        weights.exact * counts.exact
        + weights.adjacent * counts.adjacent
        + weights.different * counts.different
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
    """Per-sample yes/no/not_applicable verdicts for one sentence."""

    sentence_index: int
    verdicts: tuple[str, ...]

    def __post_init__(self):
        if not self.verdicts:
            raise ValueError("at least one verdict is required")


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
        mapped = [VERDICT_MAPPING[normalize_verdict(v)] for v in judgment.verdicts]
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
        super().__init__(f"record '{key[0]}' answer {key[1]}: {message}")
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


def detection_eval(
    corpus: Corpus,
    predictions: Mapping[tuple[str, int], Sequence[bool]],
    weights: DetectionWeights = DEFAULT_WEIGHTS,
    invert: bool = False,
) -> DetectionEvalReport:
    """Evaluate predicted Incomplete sentences against annotated gold labels.

    ``predictions`` maps ``(record_id, answer_index)`` to one Incomplete flag
    per sentence of that answer, the shape of the gold
    ``SentenceLabeling.errors``. Gold labels come from projecting the corpus
    completeness annotations onto the answer's sentences. Records with gold
    errors but an empty prediction count as misses and stay out of the
    accuracy denominator. Ids absent from the corpus are listed in
    ``skipped`` in prediction order. ``invert=True`` classifies gold
    sentences against the predictions instead. A tag count that is not the
    answer's sentence count is a PredictionError.
    """
    totals = DetectionCounts()
    misses = 0
    evaluated = 0
    skipped: list[str] = []
    for (record_id, idx), flags in predictions.items():
        record = corpus.get(record_id)
        if record is None:
            skipped.append(record_id)
            continue
        if not 0 <= idx < len(record.answers):
            raise CorpusError(f"record '{record_id}': answer index {idx} out of range")
        labeling = label_answer(record, idx, Aspect.COMPLETENESS)
        if len(flags) != labeling.n_sentences:
            raise PredictionError(
                (record_id, idx),
                f"prediction has {len(flags)} tags "
                f"but the answer has {labeling.n_sentences} sentences",
            )
        gold = {i for i, err in enumerate(labeling.errors) if err}
        predicted = {i for i, flagged in enumerate(flags) if flagged}
        evaluated += 1
        if gold and not predicted:
            misses += 1
            continue
        if invert:
            predicted, gold = gold, predicted
        totals.add(classify_detections(predicted, gold, labeling.n_sentences))
    accuracy = (
        weighted_accuracy(totals, weights) if totals.total_predicted else None
    )
    return DetectionEvalReport(
        counts=totals,
        weighted_accuracy=accuracy,
        n_records=evaluated,
        misses=misses,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Error-score files


def load_error_scores(lines: Iterable[tuple[int, dict]]) -> list[ErrorScoreRecord]:
    """Build score records from (line number, parsed JSONL object) pairs.

    Each object is ``{record_id, error_score}``, the score a finite number
    >= 0 or a numeric string (a bool is not a number); a line that is not
    raises a CorpusError naming the line and, when it has one, the record.
    """
    scores = []
    for ln, obj in lines:
        where = f"record '{obj['record_id']}': " if "record_id" in obj else ""
        if "record_id" not in obj or "error_score" not in obj:
            raise CorpusError(f"{where}score line needs record_id and error_score", line=ln)
        value = obj["error_score"]
        try:
            if isinstance(value, bool):
                raise ValueError(value)
            error_score = float(value)
        except (TypeError, ValueError):
            raise CorpusError(f"{where}error_score {value!r} is not a number", line=ln) from None
        try:
            scores.append(ErrorScoreRecord(str(obj["record_id"]), error_score))
        except ValueError as exc:
            raise CorpusError(f"{where}{exc}", line=ln) from None
    return scores


def flag_map(scores: Sequence[ErrorScoreRecord]) -> dict[str, bool]:
    flags: dict[str, bool] = {}
    for score in scores:
        if score.record_id in flags:
            raise ValueError(f"duplicate record_id '{score.record_id}' in scores")
        flags[score.record_id] = score.flagged
    return flags

