"""Seeded input generator for the benchmark.

Extends the synthetic-corpus generator of ``tests/test_scale.py`` (same
domain mix, 698 records at 1x) so that every layer the benchmark measures
has work to do:

- every question and answer text is distinct, so a cache keyed on text
  content only hits when the program analyses the same text twice;
- answers have 3-12 sentences, and a stated share of sentences carries an
  abbreviation, initials, a decimal, a closing quote or a URL, so the
  segmenter's protected-span and abbreviation paths and the reference
  census all run;
- annotations include spans, whole-answer marks, question misconceptions
  and references; every record has 2-3 preference judgments;
- ``predictions.jsonl`` holds a tag list for every answer, for
  ``eval-detect``;
- the fixture directory holds a reply for every prompt the feedback and
  eir refine steps send. About half the answers get all-Complete feedback
  (eir passes them through), about a tenth of the samples are unparseable
  (never sample 0), and a share of answers is low-confidence.

``build_inputs`` writes the files plus ``manifest.json``, which records the
measured share of each property and the outcome expected for each answer.
The same seed always gives the same bytes.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from lfqa_eval.corpus import save_corpus
from lfqa_eval.feedback import (
    TAG_COMPLETE,
    TAG_INCOMPLETE,
    build_feedback_prompt,
    parse_feedback_output,
    select_feedback,
)
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

# Published per-domain sizes (698 records), as in tests/test_scale.py.
DOMAIN_SIZES = {
    Domain.PHYSICS: 94,
    Domain.CHEMISTRY: 96,
    Domain.BIOLOGY: 110,
    Domain.TECHNOLOGY: 110,
    Domain.ECONOMICS: 110,
    Domain.HISTORY: 92,
    Domain.LAW: 86,
}

N_SAMPLES = 20

WORDS = (
    "the answer explains how the process works and why it matters with "
    "several concrete details about causes costs and consequences heat "
    "pressure energy market court cell signal layer current price ruling "
    "enzyme orbit charge vote trade river metal light sound water"
).split()

# Sentence properties the segmenter treats specially; each sentence gets at
# most one, with these probabilities.
FEATURE_SHARES = {
    "abbreviation": 0.08,
    "initials": 0.06,
    "decimal": 0.08,
    "quote": 0.06,
    "url": 0.06,
}
_ABBREVIATION_PHRASES = (
    "as Dr. Lee showed",
    "see Fig. 4 there",
    "e.g. Paris and Rome",
    "in the U.S. Senate",
    "approx. 40 units",
    "St. Louis style",
    "vs. Boston rules",
    "Prof. Adams argued",
)
_INITIALS = ("J. Smith", "A. B. Jones", "T. K. Osei", "M. Ruiz")

PASSTHROUGH_SHARE = 0.5
LOW_CONFIDENCE_SHARE = 0.15
UNPARSEABLE_PER_ANSWER = (0, 1, 2, 2, 3, 4)  # mean 2 of 20 samples
_REASONS = (
    "does not explain the underlying mechanism.",
    "omits the size of the effect.",
    "gives no example a reader could check.",
    "skips the historical background.",
)
_LOW_CONFIDENCE_REASONS = ("omits the drainage detail", "lacks any cost analysis")
_GARBAGE = (
    "I think the answer is mostly fine.",
    "1. [Partial] Reasons: unsure about this one",
    "Sure! Here is my evaluation of each statement.",
)


def _domain_counts(n_records: int) -> dict[Domain, int]:
    """Split n_records over the domains in the published proportions."""
    total = sum(DOMAIN_SIZES.values())
    counts = {d: n_records * size // total for d, size in DOMAIN_SIZES.items()}
    for domain in list(DOMAIN_SIZES)[: n_records - sum(counts.values())]:
        counts[domain] += 1
    return counts


def _cap(text: str) -> str:
    return text[0].upper() + text[1:]


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _sentence(rng: random.Random, marker: str, feature: str | None) -> str:
    body = _words(rng, 5, 12)
    if marker:
        body = f"{marker} {body}"
    if feature == "abbreviation":
        body += " " + rng.choice(_ABBREVIATION_PHRASES) + " " + _words(rng, 1, 3)
    elif feature == "initials":
        body += " according to " + rng.choice(_INITIALS) + " " + _words(rng, 1, 3)
    elif feature == "decimal":
        body += f" by about {rng.randint(1, 99)}.{rng.randint(0, 99):02d} percent"
    elif feature == "url":
        body += (
            f" as https://www.example.org/{rng.choice(WORDS)}/{rng.randint(1, 999)}.html"
            " explains"
        )
    if feature == "quote":
        return f'"{_cap(body)}."'
    return _cap(body) + "."


def _answer(rng: random.Random, marker: str) -> tuple[str, list[tuple[int, int]], list[str | None]]:
    """One answer text plus each generated sentence's offsets and feature."""
    features = []
    for _ in range(rng.randint(3, 12)):
        roll, feature = rng.random(), None
        for name, share in FEATURE_SHARES.items():
            if roll < share:
                feature = name
                break
            roll -= share
        features.append(feature)
    sentences = [
        _sentence(rng, marker if i == 0 else "", f) for i, f in enumerate(features)
    ]
    offsets, cursor = [], 0
    for s in sentences:
        offsets.append((cursor, cursor + len(s)))
        cursor += len(s) + 1
    return " ".join(sentences), offsets, features


def _span_annotations(
    rng: random.Random, idx: int, text: str, offsets: list[tuple[int, int]]
) -> list[ErrorAnnotation]:
    out = []
    aspects = (Aspect.FACTUALITY, Aspect.RELEVANCE, Aspect.COMPLETENESS)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        a, b = sorted(rng.sample(range(len(offsets)), 2))
        shape = rng.random()
        if shape < 0.4:  # exactly one sentence
            span = offsets[a]
        elif shape < 0.7:  # a phrase inside one sentence
            s, e = offsets[a]
            start = rng.randrange(s, e - 1)
            span = (start, rng.randint(start + 1, e))
        else:  # several sentences
            span = (offsets[a][0], offsets[b][1])
        out.append(
            ErrorAnnotation(rng.choice(aspects), idx, span, "synthetic", f"a{rng.randint(1, 3)}")
        )
    if rng.random() < 0.1:
        out.append(
            ErrorAnnotation(
                rng.choice(aspects), idx, None, "entire answer lacks depth", f"a{rng.randint(1, 3)}"
            )
        )
    return out


def _reference_annotations(rng: random.Random, idx: int, text: str) -> list[ErrorAnnotation]:
    out = []
    start = text.find("https://")
    if start >= 0 and rng.random() < 0.5:
        end = text.index(".html", start) + len(".html")
        out.append(ErrorAnnotation(Aspect.REFERENCES, idx, (start, end), "dead link", "a1"))
    return out


def _tagged(n: int, reasons: dict[int, str]) -> str:
    return "\n".join(
        f"{i + 1}. [{TAG_INCOMPLETE}] Reasons: {reasons[i]}"
        if i in reasons
        else f"{i + 1}. [{TAG_COMPLETE}]"
        for i in range(n)
    )


def _feedback_texts(rng: random.Random, n: int, kind: str) -> tuple[list[str], int]:
    """The 20 sampled outputs for one answer, and how many are unparseable."""
    if kind == "passthrough":
        reasons: dict[int, str] = {}
        texts = [_tagged(n, reasons)] * N_SAMPLES
    elif kind == "low_confidence":
        i = rng.randrange(n)
        a, b = _LOW_CONFIDENCE_REASONS
        reasons = {i: a}
        texts = [_tagged(n, {i: a if k % 2 == 0 else b}) for k in range(N_SAMPLES)]
    else:
        reasons = {}
        for i in sorted(rng.sample(range(n), rng.randint(1, min(2, n)))):
            reasons[i] = rng.choice(_REASONS)
            if rng.random() < 0.3:
                reasons[i] += "\nIt also leaves the reader without a source."
        texts = [_tagged(n, reasons)] * N_SAMPLES
    texts = list(texts)
    slots = rng.sample(range(1, N_SAMPLES), 6)
    unparseable = rng.choice(UNPARSEABLE_PER_ANSWER)
    for pos in slots[:unparseable]:
        texts[pos] = rng.choice(_GARBAGE)
    # A minority tag sequence (one sentence toggled) that stage 1 discards.
    flip = rng.randrange(n)
    minority = {k: v for k, v in reasons.items() if k != flip}
    if flip not in reasons:
        minority[flip] = "a minority view of this sentence."
    for pos in slots[unparseable : unparseable + rng.randint(0, 2)]:
        texts[pos] = _tagged(n, minority)
    return texts, unparseable


def build_inputs(
    root: Path,
    seed: int,
    n_records: int,
    *,
    answers: str = "all",
    fixtures: bool = True,
    predictions: bool = False,
) -> dict:
    """Write corpus.jsonl, optional predictions.jsonl and fixtures/, and manifest.json.

    ``answers`` ("all" or "model") selects the answers that fixtures and
    expectations cover.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    records: list[QARecord] = []
    features: list[str | None] = []
    generated_counts: list[int] = []
    n_whole = n_misconception = n_references = n_ann = 0
    serial = 0
    for domain, size in _domain_counts(n_records).items():
        for i in range(size):
            serial += 1
            question = (
                f"{_cap(_words(rng, 3, 6))} in case {seed}-{serial}, "
                f"and why does the {rng.choice(WORDS)} {rng.choice(WORDS)} matter?"
            )
            if rng.random() < 0.3:
                question = f"{_cap(_words(rng, 4, 8))} here. " + question
            answer_list, annotations = [], []
            for idx, source in enumerate((Source.HUMAN, Source.MODEL)):
                text, offsets, feats = _answer(rng, f"Answer {seed}-{serial}-{idx} says")
                features.extend(feats)
                generated_counts.append(len(feats))
                answer_list.append(Answer(source, text))
                annotations += _span_annotations(rng, idx, text, offsets)
                annotations += _reference_annotations(rng, idx, text)
            if rng.random() < 0.15:
                start = rng.randrange(len(question) // 2)
                annotations.append(
                    ErrorAnnotation(
                        Aspect.QUESTION_MISCONCEPTION,
                        None,
                        (start, rng.randint(start + 1, len(question))),
                        "assumes a false premise",
                        "a2",
                    )
                )
            n_ann += len(annotations)
            n_whole += sum(a.span is None for a in annotations)
            n_misconception += sum(a.answer_index is None for a in annotations)
            n_references += sum(a.aspect is Aspect.REFERENCES for a in annotations)
            preferences = [
                PreferenceJudgment(f"a{k + 1}", rng.randint(0, 1), "")
                for k in range(rng.choice((2, 3)))
            ]
            records.append(
                QARecord(
                    id=f"{domain.value}-{i}",
                    domain=domain,
                    question=question,
                    answers=answer_list,
                    annotations=annotations,
                    preferences=preferences,
                )
            )
    save_corpus(records, root / "corpus.jsonl")

    texts = [r.question for r in records] + [a.text for r in records for a in r.answers]
    if len(set(texts)) != len(texts):
        raise RuntimeError(f"seed {seed}: generated texts are not distinct")

    segmented = {}
    for record in records:
        for idx, answer in enumerate(record.answers):
            segmented[(record.id, idx)] = sentence_texts(
                answer.text, segment_sentences(answer.text)
            )
    n_sentences = len(features)
    manifest = {
        "seed": seed,
        "records": len(records),
        "answers": sum(len(r.answers) for r in records),
        "distinct_texts": len(texts),
        "shares": {
            **{
                f"sentences_with_{name}": sum(f == name for f in features) / n_sentences
                for name in FEATURE_SHARES
            },
            "answers_segmented_as_generated": sum(
                len(s) == n for s, n in zip(segmented.values(), generated_counts)
            )
            / len(segmented),
            "annotations_whole_answer": n_whole / max(n_ann, 1),
            "annotations_question_misconception": n_misconception / max(n_ann, 1),
            "annotations_references": n_references / max(n_ann, 1),
        },
    }

    if predictions:
        with open(root / "predictions.jsonl", "w", encoding="utf-8") as handle:
            for (record_id, idx), sentences in segmented.items():
                tags = [
                    TAG_INCOMPLETE if rng.random() < 0.25 else TAG_COMPLETE
                    for _ in sentences
                ]
                handle.write(
                    json.dumps({"record_id": record_id, "answer_index": idx, "tags": tags})
                    + "\n"
                )

    if fixtures:
        manifest.update(
            _write_fixtures(root / "fixtures", rng, records, segmented, answers)
        )
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def _write_fixtures(
    directory: Path,
    rng: random.Random,
    records: list[QARecord],
    segmented: dict,
    answers: str,
) -> dict:
    store = FixtureStore(directory)
    order = []  # prompt digests in the order the feedback and refine steps send them
    expected = {}
    n_answers = n_pass = n_low = n_unparseable = n_prompts = 0
    for record in records:
        for idx, answer in enumerate(record.answers):
            if answers == "model" and answer.source is not Source.MODEL:
                continue
            sentences = segmented[(record.id, idx)]
            roll = rng.random()
            if roll < PASSTHROUGH_SHARE:
                kind = "passthrough"
            elif roll < PASSTHROUGH_SHARE + LOW_CONFIDENCE_SHARE:
                kind = "low_confidence"
            else:
                kind = "incomplete"
            texts, unparseable = _feedback_texts(rng, len(sentences), kind)
            prompt = build_feedback_prompt(record.question, sentences)
            store.record(prompt, texts)
            order.append(store.digest(prompt))
            n_prompts += 1
            result = select_feedback([parse_feedback_output(t, len(sentences)) for t in texts])
            if result.low_confidence != (kind == "low_confidence"):
                raise RuntimeError(f"{record.id}#{idx}: fixture does not yield a {kind} result")
            incomplete = result.selected.incomplete_indices()
            if bool(incomplete) != (kind != "passthrough"):
                raise RuntimeError(f"{record.id}#{idx}: fixture does not yield a {kind} result")
            if incomplete:
                reasons = [result.selected.reasons[i] for i in incomplete]
                prompt = build_refine_prompt(
                    RefineMode.ERROR_INFORMED, record.question, answer.text, reasons
                )
                store.record(prompt, [f"{answer.text} It also {reasons[0]}"])
                order.append(store.digest(prompt))
                n_prompts += 1
            expected[f"{record.id}#{idx}"] = {
                "passthrough": kind == "passthrough",
                "low_confidence": kind == "low_confidence",
                "n_parseable": N_SAMPLES - unparseable,
            }
            n_answers += 1
            n_pass += kind == "passthrough"
            n_low += kind == "low_confidence"
            n_unparseable += unparseable
    (directory / "send_order.txt").write_text("\n".join(order) + "\n", encoding="ascii")
    return {
        "fixture_prompts": n_prompts,
        "fixture_answers": n_answers,
        "expected": expected,
        "fixture_shares": {
            "answers_passthrough": n_pass / n_answers,
            "answers_low_confidence": n_low / n_answers,
            "samples_unparseable": n_unparseable / (n_answers * N_SAMPLES),
        },
    }
