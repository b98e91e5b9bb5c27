"""Core data types for the annotated long-form QA corpus.

Offsets everywhere are Unicode codepoint offsets (Python string indices),
never bytes. Spans are half-open ``[start, end)``. Sentence indices are
0-based throughout the package.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Domain(str, Enum):
    PHYSICS = "physics"
    CHEMISTRY = "chemistry"
    BIOLOGY = "biology"
    TECHNOLOGY = "technology"
    ECONOMICS = "economics"
    HISTORY = "history"
    LAW = "law"
    OTHER = "other"


class Source(str, Enum):
    HUMAN = "human"
    MODEL = "model"


class Aspect(str, Enum):
    QUESTION_MISCONCEPTION = "question_misconception"
    FACTUALITY = "factuality"
    RELEVANCE = "relevance"
    COMPLETENESS = "completeness"
    REFERENCES = "references"


# Aspects that describe an answer (question_misconception describes the question).
ANSWER_ASPECTS = (
    Aspect.FACTUALITY,
    Aspect.RELEVANCE,
    Aspect.COMPLETENESS,
    Aspect.REFERENCES,
)

# Aspects whose sentence labelings are scored as 1 - errors/total.
SENTENCE_SCORED_ASPECTS = (
    Aspect.FACTUALITY,
    Aspect.RELEVANCE,
    Aspect.COMPLETENESS,
)


# The sentence tags of feedback outputs, which eval-detect's predictions carry.
TAG_COMPLETE = "Complete"
TAG_INCOMPLETE = "Incomplete"

# Feedback samples per answer when neither the config nor --n-samples sets one.
DEFAULT_N_SAMPLES = 20


class SpanGranularity(str, Enum):
    PHRASE = "phrase"
    SENTENCE = "sentence"
    MULTI_SENTENCE = "multi_sentence"


@dataclass(frozen=True, slots=True)
class Answer:
    source: Source
    text: str


@dataclass(frozen=True, slots=True)
class ErrorAnnotation:
    """One annotated error span.

    ``answer_index`` is None when the annotation targets the question.
    ``span`` is a half-open codepoint range into the target text, or None
    when the annotator marked the whole answer.
    """

    aspect: Aspect
    answer_index: int | None
    span: tuple[int, int] | None
    justification: str = ""
    annotator: str = ""


@dataclass(frozen=True, slots=True)
class PreferenceJudgment:
    annotator: str
    choice: int
    justification: str = ""


@dataclass(frozen=True, slots=True)
class SentenceSpan:
    """One sentence of a text: 0-based ordinal plus codepoint offsets."""

    index: int
    start: int
    end: int

    def intersects(self, start: int, end: int) -> bool:
        return start < self.end and end > self.start


@dataclass
class SentenceLabeling:
    """Per-sentence clean/error labels for one aspect of one text.

    ``justifications[i]`` lists the justification of every annotation that
    touched sentence ``i``, in annotation order; it is empty for clean
    sentences.
    """

    aspect: Aspect
    errors: list[bool]
    justifications: list[list[str]]

    @property
    def n_sentences(self) -> int:
        return len(self.errors)

    @property
    def n_errors(self) -> int:
        return sum(self.errors)


@dataclass
class QARecord:
    id: str
    domain: Domain
    question: str
    answers: list[Answer]
    annotations: list[ErrorAnnotation] = field(default_factory=list)
    preferences: list[PreferenceJudgment] = field(default_factory=list)

    def annotations_for(
        self, aspect: Aspect, answer_index: int | None
    ) -> list[ErrorAnnotation]:
        """Annotations of one aspect targeting the question (None) or one answer."""
        return [
            a
            for a in self.annotations
            if a.aspect is aspect and a.answer_index == answer_index
        ]
