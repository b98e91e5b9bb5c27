"""Sentence-completeness feedback: prompting, parsing, consistency selection.

The feedback model sees a question plus the answer split into numbered
sentences and must emit one line per sentence, either

    3. [Complete]
    4. [Incomplete] Reasons: <free-form justification>

A justification may run over several lines; it ends at the next numbered
tag line. Sampled outputs are reconciled in two stages: tag consistency
keeps the samples whose complete/incomplete sequence is most common, then
reason consistency picks the sample whose justification tokens are best
supported by the other samples. A winning reason-consistency score below
0.80 flags the result as low confidence.

Sentence indices are 0-based throughout; only the rendered prompt/response
lines count from 1.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import NamedTuple, Sequence

from .genclient import GenerationClient, GenerationRequest
from .models import DEFAULT_N_SAMPLES, TAG_COMPLETE, TAG_INCOMPLETE
from .segment import segment_sentences, sentence_texts

LOW_CONFIDENCE_THRESHOLD = 0.80

_PROMPT_HEADER = (
    "### Instruction:\n"
    "When given a question and answer statements, evaluate whether each given "
    "statement provides sufficient information for answering the question. \n"
    "Use the '[Incomplete]' tag to indicate answer incompleteness, and "
    "'[Complete]' tag to indicate completeness, with reasons.\n"
    "Please note that the answer can have single, multiple or no incomplete "
    "statements.\n"
)


def build_feedback_prompt(question: str, sentences: list[str]) -> str:
    """Render the feedback prompt for a question and its numbered sentences."""
    if not sentences:
        raise ValueError("at least one sentence is required")
    numbered = "\n".join(f"{i + 1}. {s}" for i, s in enumerate(sentences))
    return (
        _PROMPT_HEADER
        + "\n### Input:\n"
        + f"Question: {question}\n"
        + f"Answer: {numbered}\n"
        + "\n### Response:"
    )


# ---------------------------------------------------------------------------
# Parsing


class FeedbackSample(NamedTuple):
    """One parsed feedback output: a tag per sentence plus reasons.

    ``reasons`` maps the 0-based index of each Incomplete sentence to its
    justification. ``parse_ok`` is False when the output violated the
    response grammar; ``diagnostics`` then says how.
    """

    tags: list[str]
    reasons: dict[int, str]
    raw: str
    parse_ok: bool
    diagnostics: Sequence[str] = ()

    def incomplete_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.tags) if t == TAG_INCOMPLETE]

    def to_dict(self) -> dict:
        return {
            "tags": list(self.tags),
            "reasons": {str(i): r for i, r in sorted(self.reasons.items())},
            "parse_ok": self.parse_ok,
            "diagnostics": list(self.diagnostics),
        }


_TAG_START = re.compile(r"^\s*\d+\.\s*\[")
_TAG_LINE = re.compile(r"^\s*(\d+)\.\s*\[(Complete|Incomplete)\]\s*(.*)$")
_REASONS_PREFIX = re.compile(r"^Reasons:\s?")


def parse_feedback_output(text: str, expected_n: int) -> FeedbackSample:
    """Parse one feedback-model output; failures set parse_ok=False.

    Never raises: unparseable samples must survive as data so the sampling
    loop can discard them.
    """
    if expected_n < 1:
        raise ValueError("expected_n must be >= 1")
    diagnostics: list[str] = []
    numbers: list[int] = []
    tags: list[str] = []
    reason_lines: dict[int, list[str]] = {}  # sentence index -> its reason's lines
    extending: list[str] | None = None  # the reason a continuation line joins

    for ln, line in enumerate(text.splitlines(), start=1):
        if _TAG_START.match(line):
            match = _TAG_LINE.match(line)
            extending = None
            if not match:
                diagnostics.append(f"line {ln}: unknown tag")
                continue
            number, tag, rest = int(match.group(1)), match.group(2), match.group(3)
            numbers.append(number)
            tags.append(tag)
            if tag == TAG_COMPLETE:
                if rest.strip():
                    diagnostics.append(f"line {ln}: text after [Complete] tag")
            elif prefix := _REASONS_PREFIX.match(rest):
                extending = reason_lines[len(tags) - 1] = [rest[prefix.end() :]]
            else:
                diagnostics.append(f"line {ln}: [Incomplete] tag without 'Reasons:'")
        elif extending is not None:
            extending.append(line)
        elif not line.strip():
            continue
        elif not tags:
            diagnostics.append(f"line {ln}: content before the first tag line")
        else:
            diagnostics.append(f"line {ln}: unexpected content outside a reason")

    if len(tags) != expected_n:
        diagnostics.append(f"expected {expected_n} tags, found {len(tags)}")
    elif numbers != list(range(1, expected_n + 1)):
        diagnostics.append(f"non-contiguous numbering: {numbers}")

    reasons = {idx: "\n".join(lines).rstrip() for idx, lines in reason_lines.items()}
    return FeedbackSample(
        tags=tags,
        reasons=reasons,
        raw=text,
        parse_ok=not diagnostics,
        diagnostics=diagnostics,
    )


def format_feedback_output(sample: FeedbackSample) -> str:
    """Render a sample back into response syntax (inverse of the parser)."""
    lines = []
    for i, tag in enumerate(sample.tags):
        if tag == TAG_INCOMPLETE:
            lines.append(f"{i + 1}. [{tag}] Reasons: {sample.reasons.get(i, '')}")
        else:
            lines.append(f"{i + 1}. [{tag}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Consistency scoring


def _check_scoreable(samples: list[FeedbackSample]) -> None:
    if not samples:
        raise ValueError("no samples to score")
    length = len(samples[0].tags)
    for s in samples:
        if not s.parse_ok:
            raise ValueError("unparseable sample passed to consistency scoring")
        if len(s.tags) != length:
            raise ValueError("samples have unequal tag lengths")


def tag_consistency(
    samples: list[FeedbackSample], include_self: bool = True
) -> list[float]:
    """Per-sample fraction of samples sharing its exact tag sequence.

    The default counts the sample itself (every score is then at least 1/n);
    ``include_self=False`` drops the self match, shifting every score down by
    exactly 1/n without changing which samples score highest.
    """
    _check_scoreable(samples)
    n = len(samples)
    keys = [tuple(s.tags) for s in samples]
    counts = Counter(keys)
    offset = 0 if include_self else 1
    return [(counts[key] - offset) / n for key in keys]


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize_reasons(sample: FeedbackSample) -> list[str]:
    """Lowercased alphanumeric tokens of the sample's concatenated reasons."""
    joined = " ".join(sample.reasons[i] for i in sorted(sample.reasons))
    return _TOKEN_RE.findall(joined.lower())


def _reason_support(samples: list[FeedbackSample]) -> list[tuple[int, int]]:
    """(support sum, token count) of each sample's reason tokens.

    A token's support is how many of the samples' token sets contain it; the
    support sum adds it up over the sample's tokens, repeats included.
    """
    token_lists = [tokenize_reasons(s) for s in samples]
    support = Counter(chain.from_iterable(map(set, token_lists)))
    return [(sum(map(support.__getitem__, ts)), len(ts)) for ts in token_lists]


def reason_consistency(survivors: list[FeedbackSample]) -> list[float]:
    """Normalized cross-sample token support for each sample's reasons, in [0, 1].

    Token k of sample i scores the fraction of *other* samples whose reason
    token set contains it; the sample score averages over its tokens. A
    sample with no reasons scores 1.0 when no survivor has reasons (they all
    agree there is nothing to justify) and 0.0 otherwise. A single survivor
    scores 1.0.
    """
    _check_scoreable(survivors)
    n = len(survivors)
    if n == 1:
        return [1.0]
    totals = _reason_support(survivors)
    no_reasons = 0.0 if any(size for _, size in totals) else 1.0
    # every token of a sample is in its own token set: size drops those self matches
    return [
        (total - size) / (size * (n - 1)) if size else no_reasons
        for total, size in totals
    ]


def reason_consistency_raw(survivors: list[FeedbackSample]) -> list[float]:
    """Unnormalized variant: average per-token match count over all samples,
    the sample itself included (so every score with tokens is >= 1).

    Ranks samples identically to reason_consistency on the same survivor set;
    samples without reasons score 0.0 here.
    """
    _check_scoreable(survivors)
    return [total / size if size else 0.0 for total, size in _reason_support(survivors)]


# ---------------------------------------------------------------------------
# Selection


class FeedbackResult(NamedTuple):
    selected: FeedbackSample
    tag_score: float
    reason_score: float
    n_sampled: int
    n_parseable: int
    low_confidence: bool
    samples: Sequence[FeedbackSample] = ()  # every sample, for audit

    def to_dict(self, audit: bool = False) -> dict:
        out = {
            "tag_score": self.tag_score,
            "reason_score": self.reason_score,
            "n_sampled": self.n_sampled,
            "n_parseable": self.n_parseable,
            "low_confidence": self.low_confidence,
            "selected": self.selected.to_dict(),
        }
        if audit:
            out["selected_raw"] = self.selected.raw
            out["samples_raw"] = [s.raw for s in self.samples]
        return out


def select_feedback(samples: list[FeedbackSample]) -> FeedbackResult:
    """Two-stage selection over sampled feedback outputs.

    Unparseable samples are discarded; stage 1 keeps every sample with the
    highest tag-consistency score; stage 2 picks the highest reason
    consistency among them, ties going to the earliest sample.
    """
    parseable = [s for s in samples if s.parse_ok]
    if not parseable:
        raise ValueError("zero parseable samples")
    tag_scores = tag_consistency(parseable)
    best_tag = max(tag_scores)
    survivors = [s for s, score in zip(parseable, tag_scores) if score == best_tag]
    reason_scores = reason_consistency(survivors)
    reason_score = max(reason_scores)
    selected = survivors[reason_scores.index(reason_score)]
    return FeedbackResult(
        selected=selected,
        tag_score=best_tag,
        reason_score=reason_score,
        n_sampled=len(samples),
        n_parseable=len(parseable),
        low_confidence=reason_score < LOW_CONFIDENCE_THRESHOLD,
        samples=list(samples),
    )


# ---------------------------------------------------------------------------
# End-to-end feedback over one answer


def feedback_max_tokens(n_sentences: int) -> int:
    # one tag line per sentence plus room for multi-line justifications
    return 128 + 64 * n_sentences


def run_feedback(
    question: str,
    answer: str,
    client: GenerationClient,
    n_samples: int = DEFAULT_N_SAMPLES,
    *,
    temperature: float,
    max_tokens: int | None = None,
) -> FeedbackResult:
    """Sample n feedback outputs for one answer and select the most consistent.

    ``temperature`` has no default on purpose: sampling diversity drives the
    consistency scores, so the caller must choose it explicitly.
    """
    spans = segment_sentences(answer)
    if not spans:
        raise ValueError("answer has no sentences")
    sentences = sentence_texts(answer, spans)
    prompt = build_feedback_prompt(question, sentences)
    request = GenerationRequest(
        prompt=prompt,
        max_tokens=feedback_max_tokens(len(sentences)) if max_tokens is None else max_tokens,
        temperature=temperature,
        n_samples=n_samples,
    )
    result = client.generate(request)
    # Sampled outputs repeat; equal texts share one parsed sample, a
    # NamedTuple whose fields cannot be reassigned.
    distinct = {
        text: parse_feedback_output(text, len(sentences))
        for text in dict.fromkeys(result.texts)
    }
    return select_feedback([distinct[t] for t in result.texts])
