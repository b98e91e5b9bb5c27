"""Corpus-scale smoke test: published domain sizes, well under the time budget."""
import random
import time

import pytest

from conftest import make_record
from lfqa_eval.cli import corpus_stats
from lfqa_eval.corpus import load_corpus, save_corpus
from lfqa_eval.models import (
    Answer,
    Aspect,
    Domain,
    ErrorAnnotation,
    PreferenceJudgment,
    Source,
)
from lfqa_eval.scoring import domain_report

DOMAIN_SIZES = {
    Domain.PHYSICS: 94,
    Domain.CHEMISTRY: 96,
    Domain.BIOLOGY: 110,
    Domain.TECHNOLOGY: 110,
    Domain.ECONOMICS: 110,
    Domain.HISTORY: 92,
    Domain.LAW: 86,
}

WORDS = (
    "the answer explains how the process works and why it matters with "
    "several concrete details about causes costs and consequences"
).split()


def _synthetic_corpus(rng: random.Random) -> list:
    records = []
    for domain, size in DOMAIN_SIZES.items():
        for i in range(size):
            sentences = [
                " ".join(rng.choice(WORDS) for _ in range(rng.randint(6, 14))).capitalize() + "."
                for _ in range(rng.randint(3, 8))
            ]
            text = " ".join(sentences)
            answers = [Answer(Source.HUMAN, text), Answer(Source.MODEL, text)]
            annotations = []
            for _ in range(rng.randint(0, 3)):
                start = rng.randrange(len(text) - 2)
                end = rng.randint(start + 1, len(text))
                annotations.append(
                    ErrorAnnotation(
                        rng.choice(
                            [Aspect.FACTUALITY, Aspect.RELEVANCE, Aspect.COMPLETENESS, Aspect.REFERENCES]
                        ),
                        rng.randint(0, 1),
                        (start, end),
                        "synthetic",
                        f"a{rng.randint(1, 3)}",
                    )
                )
            preferences = [
                PreferenceJudgment(f"a{k}", rng.randint(0, 1), "")
                for k in range(3)
            ]
            records.append(
                make_record(
                    record_id=f"{domain.value}-{i}",
                    domain=domain,
                    answers=answers,
                    annotations=annotations,
                    preferences=preferences,
                )
            )
    return records


def test_full_size_corpus_under_time_budget(tmp_path):
    rng = random.Random(698)
    records = _synthetic_corpus(rng)
    path = tmp_path / "synthetic.jsonl"
    save_corpus(records, path)

    start = time.perf_counter()
    corpus = load_corpus(path)
    report = domain_report(corpus)
    spans, lengths = corpus_stats(corpus)
    elapsed = time.perf_counter() - start

    assert {row.domain: row.n_records for row in report.rows} == {
        d.value: n for d, n in DOMAIN_SIZES.items()
    }
    assert report.average.n_records == 698
    for row in report.rows:
        assert row.human_pref_pct + row.model_pref_pct == pytest.approx(100.0)
        assert row.alpha is not None
    assert "average" in spans
    total_pct = sum(spans["average"][k] for k in ("phrase", "sentence", "multi_sentence"))
    assert total_pct == pytest.approx(100.0)
    assert sum(lengths["human"].values()) == 698
    assert elapsed < 60.0, f"full-corpus scoring took {elapsed:.1f}s"
