"""Answer refinement prompts and the feedback-then-refine pipeline.

Three prompt flavors:

- improve:         re-prompt with the original answer, no error feedback
- generic:         add a blanket "the answer is not complete" nudge
- error_informed:  feed the selected feedback's numbered justifications

``run_eir`` is the second stage of Error-Informed Refinement: given the
selected feedback for an answer, it refines with the numbered reasons only
when some sentence was tagged Incomplete; otherwise the original answer
passes through untouched so downstream error metrics never see a gratuitous
rewrite.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .feedback import FeedbackResult
from .genclient import GenerationClient, GenerationError, GenerationRequest

REFINE_TEMPERATURE = 0.1
ANSWER_LENGTH_FACTOR = 1.5  # max_tokens budget relative to the answer word count


class RefineMode(str, Enum):
    IMPROVE = "improve"
    GENERIC = "generic"
    ERROR_INFORMED = "error_informed"


def build_refine_prompt(
    mode: RefineMode,
    question: str,
    answer: str,
    reasons: list[str] | None = None,
) -> str:
    """Render the refinement prompt for one answer.

    ``reasons`` are required (and rendered as a numbered list) only in
    error_informed mode.
    """
    if mode is RefineMode.ERROR_INFORMED:
        if not reasons:
            raise ValueError("error_informed mode requires at least one reason")
        numbered = "\n".join(f"{i + 1}. {r}" for i, r in enumerate(reasons))
        middle = f'The answer is not complete because: \n"{numbered}".\n'
    elif mode is RefineMode.GENERIC:
        middle = "The answer is not complete.\n"
    else:
        middle = ""
    return (
        f'\nAnswer the following question: "{question}"\n'
        f'Your answer is: "{answer}".\n'
        f"{middle}"
        "Please improve your answer.\n"
        "Your improved answer:\n\n"
    )


def refine_max_tokens(answer: str) -> int:
    return max(1, math.ceil(ANSWER_LENGTH_FACTOR * len(answer.split())))


class RefinementRecord(NamedTuple):
    question: str
    original_answer: str
    mode: RefineMode
    feedback: FeedbackResult | None
    refined_answer: str
    passthrough: bool
    prompt: str = ""  # the refine prompt actually sent ("" on passthrough)

    def to_dict(self, audit: bool = False) -> dict:
        out = {
            "mode": self.mode.value,
            "passthrough": self.passthrough,
            "refined_answer": self.refined_answer,
            "feedback": self.feedback.to_dict(audit) if self.feedback else None,
        }
        if audit:
            out["question"] = self.question
            out["original_answer"] = self.original_answer
            out["prompt"] = self.prompt
        return out


def refine_answer(
    question: str,
    answer: str,
    mode: RefineMode,
    reasons: list[str] | None,
    client: GenerationClient,
    *,
    temperature: float = REFINE_TEMPERATURE,
    max_tokens: int | None = None,
    feedback: FeedbackResult | None = None,
) -> RefinementRecord:
    """Issue one refinement generation and wrap it as a record."""
    prompt = build_refine_prompt(mode, question, answer, reasons)
    request = GenerationRequest(
        prompt=prompt,
        max_tokens=refine_max_tokens(answer) if max_tokens is None else max_tokens,
        temperature=temperature,
        n_samples=1,
    )
    result = client.generate(request)
    refined = result.texts[0].strip()
    if not refined:
        raise GenerationError("empty refinement")
    return RefinementRecord(
        question=question,
        original_answer=answer,
        mode=mode,
        feedback=feedback,
        refined_answer=refined,
        passthrough=False,
        prompt=prompt,
    )


def run_eir(
    question: str,
    answer: str,
    feedback: FeedbackResult,
    client: GenerationClient,
    *,
    temperature: float = REFINE_TEMPERATURE,
    max_tokens: int | None = None,
) -> RefinementRecord:
    """Error-informed refinement of one answer from its selected feedback.

    Feedback with no Incomplete sentence yields a passthrough record and
    issues no refinement call.
    """
    incomplete = feedback.selected.incomplete_indices()
    if not incomplete:
        return RefinementRecord(
            question=question,
            original_answer=answer,
            mode=RefineMode.ERROR_INFORMED,
            feedback=feedback,
            refined_answer=answer,
            passthrough=True,
        )
    reasons = [feedback.selected.reasons[i] for i in sorted(incomplete)]
    return refine_answer(
        question,
        answer,
        RefineMode.ERROR_INFORMED,
        reasons,
        client,
        temperature=temperature,
        max_tokens=max_tokens,
        feedback=feedback,
    )
