"""Fine-grained answer scores, domain-level reports, and annotator agreement.

Aspect scores live in [0, 1] (1 = no errors). Factuality, relevance, and
completeness score ``1 - error_sentences/total_sentences``; references score
``1 - error_references/total_references`` and are undefined (None) when an
answer contains no references; question misconception is binary. The overall
answer score averages the defined answer-aspect scores together with a 0/1
preference score.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import label_aspects
from .models import (
    ANSWER_ASPECTS,
    Aspect,
    Domain,
    ErrorAnnotation,
    QARecord,
    SENTENCE_SCORED_ASPECTS,
    SentenceLabeling,
    Source,
)
from .segment import URL_RE


def sentence_error_score(labeling: SentenceLabeling) -> float:
    """1 - error_sentences/total_sentences; requires at least one sentence."""
    if labeling.n_sentences == 0:
        raise ValueError("score undefined for a labeling with zero sentences")
    return 1.0 - labeling.n_errors / labeling.n_sentences


def reference_score(total_refs: int, error_refs: int) -> float | None:
    """1 - error_refs/total_refs, or None when the answer has no references."""
    if error_refs > total_refs:
        raise ValueError(f"error_refs {error_refs} exceeds total_refs {total_refs}")
    if total_refs == 0:
        return None
    return 1.0 - error_refs / total_refs


def misconception_score(question_annotations: Sequence[ErrorAnnotation]) -> float:
    """1.0 iff the question carries no misconception annotations."""
    for ann in question_annotations:
        if ann.aspect is not Aspect.QUESTION_MISCONCEPTION:
            raise ValueError(f"unexpected aspect {ann.aspect.value}")
    return 1.0 if not question_annotations else 0.0


def overall_score(
    aspect_scores: Mapping[Aspect, float | None], preferred: bool
) -> float:
    """Mean of the defined answer-aspect scores plus a 0/1 preference score.

    Question misconception never participates (it describes the question);
    undefined aspects shrink the denominator rather than counting as 0 or 1.
    """
    defined = [
        aspect_scores[a]
        for a in ANSWER_ASPECTS
        if aspect_scores.get(a) is not None
    ]
    if not defined:
        raise ValueError("overall score needs at least one defined aspect score")
    values = defined + [1.0 if preferred else 0.0]
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Reference census


def count_references(text: str, reference_annotations: Sequence[ErrorAnnotation]) -> tuple[int, int]:
    """Count (total_references, error_references) for one answer.

    Every annotated references-aspect span counts as one unhelpful reference;
    hyperlinks matched by URL pattern that no annotation covers add to the
    total as helpful references.
    """
    for ann in reference_annotations:
        if ann.aspect is not Aspect.REFERENCES:
            raise ValueError(f"unexpected aspect {ann.aspect.value}")
    errors = len(reference_annotations)
    total = errors
    for match in URL_RE.finditer(text):
        s, e = match.span()
        covered = any(
            ann.span is None or (ann.span[0] < e and ann.span[1] > s)
            for ann in reference_annotations
        )
        if not covered:
            total += 1
    return total, errors


# ---------------------------------------------------------------------------
# Per-answer scorecards


@dataclass
class AspectScorecard:
    record_id: str
    answer_index: int
    source: Source
    scores: dict[Aspect, float | None]
    preference_score: float
    overall: float | None

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "answer_index": self.answer_index,
            "source": self.source.value,
            "scores": {a.value: s for a, s in self.scores.items()},
            "preference_score": self.preference_score,
            "overall": self.overall,
        }


def preference_shares(record: QARecord) -> tuple[float, float] | None:
    """(human_share, model_share) from annotator majority; ties split 0.5/0.5.

    None when the record carries no preference judgments.
    """
    if not record.preferences:
        return None
    votes = Counter(
        record.answers[p.choice].source for p in record.preferences
    )
    human, model = votes[Source.HUMAN], votes[Source.MODEL]
    if human > model:
        return 1.0, 0.0
    if model > human:
        return 0.0, 1.0
    return 0.5, 0.5


def preferred_source(record: QARecord) -> Source | None:
    """Strict-majority preferred answer source; None on tie or no judgments."""
    shares = preference_shares(record)
    if shares is None or shares[0] == shares[1]:
        return None
    return Source.HUMAN if shares[0] > shares[1] else Source.MODEL


def score_record(record: QARecord) -> list[AspectScorecard]:
    """Build one scorecard per answer of the record."""
    misconception = misconception_score(
        record.annotations_for(Aspect.QUESTION_MISCONCEPTION, None)
    )
    winner = preferred_source(record)
    cards = []
    for idx, answer in enumerate(record.answers):
        scores: dict[Aspect, float | None] = {
            Aspect.QUESTION_MISCONCEPTION: misconception
        }
        labelings = label_aspects(record, idx, SENTENCE_SCORED_ASPECTS)
        for aspect, labeling in labelings.items():
            scores[aspect] = (
                sentence_error_score(labeling) if labeling.n_sentences else None
            )
        total, errors = count_references(
            answer.text, record.annotations_for(Aspect.REFERENCES, idx)
        )
        scores[Aspect.REFERENCES] = reference_score(total, errors)

        preferred = winner is not None and answer.source is winner
        defined = any(scores[a] is not None for a in ANSWER_ASPECTS)
        cards.append(
            AspectScorecard(
                record_id=record.id,
                answer_index=idx,
                source=answer.source,
                scores=scores,
                preference_score=1.0 if preferred else 0.0,
                overall=overall_score(scores, preferred) if defined else None,
            )
        )
    return cards


# ---------------------------------------------------------------------------
# Krippendorff's alpha (nominal)


def krippendorff_alpha(rows: Sequence[Sequence[object | None]]) -> float:
    """Nominal-label agreement: 1 - observed/expected disagreement.

    ``rows`` is items x annotators with None for missing labels; items with
    fewer than two labels are excluded. Expected disagreement is estimated
    from the pooled label distribution, drawing each pair with replacement
    (n * n pairings). All-identical labels return 1.0.
    """
    if not rows or max(len(r) for r in rows) < 2:
        raise ValueError("need at least two annotator columns")
    units = [[v for v in row if v is not None] for row in rows]
    units = [vals for vals in units if len(vals) >= 2]
    if not units:
        raise ValueError("need at least one item with two or more labels")

    coincidence: Counter = Counter()
    for vals in units:
        weight = 1.0 / (len(vals) - 1)
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                if i != j:
                    coincidence[(a, b)] += weight

    marginals: Counter = Counter()
    for (a, _b), c in coincidence.items():
        marginals[a] += c
    n = sum(marginals.values())

    observed = sum(c for (a, b), c in coincidence.items() if a != b) / n
    expected = (
        sum(
            marginals[a] * marginals[b]
            for a in marginals
            for b in marginals
            if a != b
        )
        / (n * n)
    )
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


def preference_agreement_row(record: QARecord) -> tuple[str, ...]:
    """The answer source each annotator of the record preferred, in judgment order."""
    return tuple(record.answers[p.choice].source.value for p in record.preferences)


# ---------------------------------------------------------------------------
# Domain report


MEAN_KEYS = [a.value for a in Aspect] + ["overall"]


@dataclass
class DomainRow:
    domain: str
    n_records: int
    human_pref_pct: float | None
    model_pref_pct: float | None
    alpha: float | None
    means: dict[str, dict[str, float | None]]  # source -> aspect/overall -> mean

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DomainReport:
    rows: list[DomainRow]
    average: DomainRow


def _mean(values: Iterable[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


class _DomainTally:
    """What one domain's row needs, gathered one record at a time.

    Score values stay floats in corpus order, not running sums: sum() of
    floats is compensated from Python 3.12 on, so only summing the same
    sequence keeps the report's bytes. A preference share is 0, 0.5 or 1,
    and sums of those are exact either way.
    """

    def __init__(self):
        from array import array  # an extension module: runs that build no report never load it

        self.n_records = 0
        self.n_shares = 0
        self.human = self.model = 0.0
        self.agreement_rows: list[tuple[str, ...]] = []
        # source -> aspect/overall -> values, sources in first-seen order
        self.values: defaultdict = defaultdict(lambda: defaultdict(lambda: array("d")))

    def add(self, record: QARecord) -> None:
        self.n_records += 1
        shares = preference_shares(record)
        if shares is not None:
            self.n_shares += 1
            self.human += shares[0]
            self.model += shares[1]
        row = preference_agreement_row(record)
        if len(row) >= 2:
            self.agreement_rows.append(row)

    def add_cards(self, cards: Sequence[AspectScorecard]) -> None:
        for card in cards:
            bucket = self.values[card.source.value]
            for aspect, value in card.scores.items():
                if value is not None:
                    bucket[aspect.value].append(value)
            if card.overall is not None:
                bucket["overall"].append(card.overall)

    def row(self, domain: Domain) -> DomainRow:
        n = self.n_shares
        return DomainRow(
            domain=domain.value,
            n_records=self.n_records,
            human_pref_pct=100.0 * self.human / n if n else None,
            model_pref_pct=100.0 * self.model / n if n else None,
            alpha=krippendorff_alpha(self.agreement_rows) if self.agreement_rows else None,
            means={
                source: {key: _mean(values.get(key, ())) for key in MEAN_KEYS}
                for source, values in self.values.items()
            },
        )


def _average_row(rows: Sequence[DomainRow]) -> DomainRow:
    """Unweighted mean of the per-domain values, with the total record count."""
    sources = sorted({source for row in rows for source in row.means})
    return DomainRow(
        domain="average",
        n_records=sum(row.n_records for row in rows),
        human_pref_pct=_mean(row.human_pref_pct for row in rows),
        model_pref_pct=_mean(row.model_pref_pct for row in rows),
        alpha=_mean(row.alpha for row in rows),
        means={
            source: {
                key: _mean(
                    row.means[source][key] for row in rows if source in row.means
                )
                for key in MEAN_KEYS
            }
            for source in sources
        },
    )


def _report(
    records: Iterable[QARecord],
    on_cards: Callable[[list[AspectScorecard]], None] | None,
) -> DomainReport:
    """One pass over records; each is scored, and its cards passed on, iff on_cards."""
    tallies: dict[Domain, _DomainTally] = {}
    for record in records:
        tally = tallies.get(record.domain)
        if tally is None:
            tally = tallies[record.domain] = _DomainTally()
        tally.add(record)
        if on_cards is not None:
            cards = score_record(record)
            tally.add_cards(cards)
            on_cards(cards)
    if not tallies:
        raise ValueError("corpus is empty")
    rows = [tallies[domain].row(domain) for domain in Domain if domain in tallies]
    return DomainReport(rows=rows, average=_average_row(rows))


def preference_report(records: Iterable[QARecord]) -> DomainReport:
    """Per-domain sample counts, preference split, and agreement, in one pass.

    Scores no answer: every row's ``means`` is empty.
    """
    return _report(records, None)


def domain_report(
    records: Iterable[QARecord],
    on_cards: Callable[[list[AspectScorecard]], None] = lambda cards: None,
) -> DomainReport:
    """Per-domain sample counts, preference split, agreement, and mean scores.

    The average row is the unweighted mean of the per-domain values (matching
    how a per-domain summary table averages its rows), with the total record
    count. One pass scores every record once and hands its scorecards to
    ``on_cards``, so they are seen in corpus order and none is kept.
    """
    return _report(records, on_cards)


def _fmt(value: float | None, pct: bool = False) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}%" if pct else f"{value:.2f}"


def format_domain_table(report: DomainReport) -> str:
    """Plain-text table: domain, sample count, preference split, alpha."""
    header = f"{'Category':<14}{'Samples':>8}{'Human':>10}{'Model':>10}{'Alpha':>8}"
    lines = [header, "-" * len(header)]
    for row in report.rows + [report.average]:
        lines.append(
            f"{row.domain:<14}{row.n_records:>8}"
            f"{_fmt(row.human_pref_pct, pct=True):>10}"
            f"{_fmt(row.model_pref_pct, pct=True):>10}"
            f"{_fmt(row.alpha):>8}"
        )
    return "\n".join(lines)


def format_aspect_table(report: DomainReport) -> str:
    """Plain-text table of mean aspect scores per domain and answer source."""
    sources = sorted({source for row in report.rows for source in row.means})
    header = f"{'Domain':<14}{'Source':<8}" + "".join(
        f"{key[:12]:>14}" for key in MEAN_KEYS
    )
    lines = [header, "-" * len(header)]
    for row in report.rows + [report.average]:
        for source in sources:
            means = row.means.get(source)
            if means is None:
                continue
            lines.append(
                f"{row.domain:<14}{source:<8}"
                + "".join(f"{_fmt(means[key]):>14}" for key in MEAN_KEYS)
            )
    return "\n".join(lines)
