"""Shared corpus builders and the scripted end-to-end environment."""
from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import settings

import lfqa_eval
from lfqa_eval.cli import main
from lfqa_eval.corpus import save_corpus
from lfqa_eval.feedback import TAG_COMPLETE, TAG_INCOMPLETE, build_feedback_prompt
from lfqa_eval.genclient import FixtureStore
from lfqa_eval.models import (
    Answer,
    Aspect,
    Domain,
    ErrorAnnotation,
    PreferenceJudgment,
    QARecord,
    Source,
)
from lfqa_eval.refine import RefineMode, build_refine_prompt
from lfqa_eval.segment import segment_sentences, sentence_texts


# CI runs the properties harder (--hypothesis-profile=ci) and prints a blob
# that replays a failing example with @reproduce_failure.
settings.register_profile("ci", max_examples=1000, deadline=None, print_blob=True)


def child_env() -> dict[str, str]:
    """os.environ for a child interpreter that imports the lfqa_eval under test."""
    src = str(Path(lfqa_eval.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter (sys.argv[1:] = args); stdout and stderr as text."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=child_env(), capture_output=True, encoding="utf-8"
    )


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and stderr; stdout is discarded."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def make_record(
    record_id: str = "q1",
    domain: Domain = Domain.LAW,
    question: str = "What is the difference between a copyright and a trademark?",
    answers: list[Answer] | None = None,
    annotations: list[ErrorAnnotation] | None = None,
    preferences: list[PreferenceJudgment] | None = None,
) -> QARecord:
    if answers is None:
        answers = [
            Answer(Source.HUMAN, "A trademark protects a logo. A copyright protects content."),
            Answer(Source.MODEL, "Copyright covers creative works. Trademark covers brand identifiers."),
        ]
    return QARecord(
        id=record_id,
        domain=domain,
        question=question,
        answers=answers,
        annotations=annotations or [],
        preferences=preferences or [],
    )


# ---------------------------------------------------------------------------
# Golden scripted environment: 10 records, deterministic fixtures


GOLDEN_SPECS = [
    # (suffix, kind, question, answer)
    ("00", "clean", "Why is the sky blue?",
     "Sunlight scatters off air molecules. Blue light scatters the most."),
    ("01", "low_confidence", "Why are railway tracks laid on crushed stone?",
     "Crushed stone spreads the load of the track. It is cheap to maintain."),
    ("02", "partial_parse", "How do vaccines train the immune system?",
     "Vaccines show the body a harmless piece of a pathogen. The immune system builds antibodies against it."),
    ("03", "normal", "Why do onions make you cry?",
     "Cut onions release a volatile compound. The compound irritates the eyes. Tears wash it away."),
    ("04", "multi", "How does a refrigerator stay cold?",
     "A refrigerant absorbs heat inside the cabinet. A compressor pressurizes the gas. The heat leaves through coils at the back."),
    ("05", "normal", "Why does bread rise?",
     "Yeast ferments sugars in the dough. The released gas forms bubbles."),
    ("06", "clean", "Why do leaves change color in autumn?",
     "Chlorophyll breaks down when days shorten. Other pigments then become visible."),
    ("07", "normal", "Why is seawater salty?",
     "Rivers carry dissolved minerals to the ocean. Evaporation leaves the salts behind."),
    ("08", "normal", "How do noise-cancelling headphones work?",
     "Microphones pick up ambient sound. The headphones emit an inverted wave. The waves cancel each other."),
    ("09", "clean", "Why do ice cubes crack in a drink?",
     "The outside of the cube warms faster than the core. The uneven expansion splits the ice."),
]

LOW_CONFIDENCE_REASON_A = "missing drainage detail"
LOW_CONFIDENCE_REASON_B = "missing cost analysis"


def _tagged_output(n: int, incomplete: dict[int, str]) -> str:
    lines = []
    for i in range(n):
        if i in incomplete:
            lines.append(f"{i + 1}. [{TAG_INCOMPLETE}] Reasons: {incomplete[i]}")
        else:
            lines.append(f"{i + 1}. [{TAG_COMPLETE}]")
    return "\n".join(lines)


def _feedback_fixture(kind: str, n: int) -> tuple[list[str], dict[int, str]]:
    """Return (the 20 sampled outputs, reasons of the sample that must win)."""
    if kind == "clean":
        return [_tagged_output(n, {})] * 20, {}
    if kind == "low_confidence":
        a = _tagged_output(n, {0: LOW_CONFIDENCE_REASON_A})
        b = _tagged_output(n, {0: LOW_CONFIDENCE_REASON_B})
        return [a] * 10 + [b] * 10, {0: LOW_CONFIDENCE_REASON_A}
    if kind == "partial_parse":
        reasons = {0: "needs a worked example."}
        return ["not a tagged response"] * 5 + [_tagged_output(n, reasons)] * 15, reasons
    if kind == "multi":
        reasons = {0: "does not say which refrigerant is used.",
                   2: "does not mention where the heat goes."}
        return [_tagged_output(n, reasons)] * 20, reasons
    reasons = {n - 1: "does not explain the underlying mechanism."}
    return [_tagged_output(n, reasons)] * 20, reasons


def build_golden_environment(root: Path) -> dict:
    """Write the 10-record corpus and every fixture the pipeline will ask for."""
    fixtures = root / "fixtures"
    store = FixtureStore(fixtures)
    records = []
    expectations = {}
    for suffix, kind, question, answer in GOLDEN_SPECS:
        record_id = f"g{suffix}"
        records.append(
            make_record(
                record_id=record_id,
                domain=Domain.OTHER,
                question=question,
                answers=[Answer(Source.MODEL, answer)],
            )
        )
        sentences = sentence_texts(answer, segment_sentences(answer))
        outputs, winning_reasons = _feedback_fixture(kind, len(sentences))
        store.record(build_feedback_prompt(question, sentences), outputs)
        if winning_reasons:
            reasons = [winning_reasons[i] for i in sorted(winning_reasons)]
            prompt = build_refine_prompt(RefineMode.ERROR_INFORMED, question, answer, reasons)
            store.record(prompt, [f"Revised answer for {record_id}: {' '.join(reasons)}"])
        expectations[record_id] = kind
    corpus_path = root / "corpus.jsonl"
    save_corpus(records, corpus_path)
    return {
        "corpus": corpus_path,
        "fixtures": fixtures,
        "expectations": expectations,
    }


@pytest.fixture(scope="session")
def golden_env(tmp_path_factory) -> dict:
    return build_golden_environment(tmp_path_factory.mktemp("golden"))
