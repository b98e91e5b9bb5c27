import random

import pytest

from conftest import make_record
from lfqa_eval.models import (
    Answer,
    Aspect,
    Domain,
    ErrorAnnotation,
    PreferenceJudgment,
    SentenceLabeling,
    Source,
)
from lfqa_eval.scoring import (
    count_references,
    domain_report,
    format_domain_table,
    krippendorff_alpha,
    misconception_score,
    overall_score,
    preference_shares,
    reference_score,
    score_record,
    sentence_error_score,
)


def _labeling(n_errors: int, n_total: int) -> SentenceLabeling:
    errors = [i < n_errors for i in range(n_total)]
    return SentenceLabeling(
        aspect=Aspect.FACTUALITY,
        errors=errors,
        justifications=[["x"] if e else [] for e in errors],
    )


# ---------------------------------------------------------------------------
# aspect score formulas


def test_sentence_error_score_values():
    assert sentence_error_score(_labeling(0, 8)) == 1.0
    assert sentence_error_score(_labeling(2, 10)) == pytest.approx(0.8)
    assert sentence_error_score(_labeling(10, 10)) == 0.0


def test_sentence_error_score_rejects_empty():
    with pytest.raises(ValueError):
        sentence_error_score(_labeling(0, 0))


def test_sentence_error_score_single_flip_steps_by_one_over_n():
    for total in range(1, 12):
        for errors in range(total):
            delta = sentence_error_score(_labeling(errors, total)) - sentence_error_score(
                _labeling(errors + 1, total)
            )
            assert delta == pytest.approx(1.0 / total)


def test_reference_score_values():
    assert reference_score(0, 0) is None
    assert reference_score(4, 1) == pytest.approx(0.75)
    assert reference_score(3, 3) == 0.0
    with pytest.raises(ValueError):
        reference_score(2, 3)


def test_misconception_score_values():
    assert misconception_score([]) == 1.0
    one = ErrorAnnotation(Aspect.QUESTION_MISCONCEPTION, None, (0, 3), "", "a")
    assert misconception_score([one]) == 0.0
    assert misconception_score([one, one, one]) == 0.0


def test_overall_score_values():
    perfect = {
        Aspect.FACTUALITY: 1.0,
        Aspect.RELEVANCE: 1.0,
        Aspect.COMPLETENESS: 1.0,
        Aspect.REFERENCES: 1.0,
    }
    assert overall_score(perfect, preferred=True) == 1.0
    mixed = {
        Aspect.FACTUALITY: 0.9,
        Aspect.RELEVANCE: 1.0,
        Aspect.COMPLETENESS: 0.5,
        Aspect.REFERENCES: None,
    }
    assert overall_score(mixed, preferred=False) == pytest.approx(0.6)
    zeros = {a: 0.0 for a in perfect}
    assert overall_score(zeros, preferred=False) == 0.0


def test_overall_score_ignores_misconception_and_requires_an_aspect():
    scores = {Aspect.QUESTION_MISCONCEPTION: 0.0, Aspect.FACTUALITY: 1.0}
    assert overall_score(scores, preferred=True) == 1.0
    with pytest.raises(ValueError):
        overall_score({Aspect.QUESTION_MISCONCEPTION: 1.0}, preferred=True)


def test_overall_score_monotone_and_permutation_invariant():
    rng = random.Random(2)
    aspects = [Aspect.FACTUALITY, Aspect.RELEVANCE, Aspect.COMPLETENESS, Aspect.REFERENCES]
    for _ in range(100):
        values = {a: rng.random() for a in aspects}
        base = overall_score(values, preferred=False)
        # permutation invariance: shuffling assignment of the same values
        shuffled_values = list(values.values())
        rng.shuffle(shuffled_values)
        assert overall_score(dict(zip(aspects, shuffled_values)), False) == pytest.approx(base)
        # monotone in each aspect and the preference bit
        bumped = dict(values)
        bump_aspect = rng.choice(aspects)
        bumped[bump_aspect] = min(1.0, values[bump_aspect] + 0.1)
        assert overall_score(bumped, False) >= base - 1e-12
        assert overall_score(values, True) >= base


# ---------------------------------------------------------------------------
# reference census


def test_count_references_annotated_plus_urls():
    text = "See https://example.org/a for data. Also try www.sample.net today."
    # one annotated (unhelpful) span over the first link, second link unannotated
    url_start = text.index("https://")
    ann = ErrorAnnotation(
        Aspect.REFERENCES, 0, (url_start, url_start + 21), "dead link", "a1"
    )
    total, errors = count_references(text, [ann])
    assert (total, errors) == (2, 1)
    assert reference_score(total, errors) == pytest.approx(0.5)


def test_count_references_no_references():
    assert count_references("Plain text with no links.", []) == (0, 0)


def test_count_references_non_link_annotation():
    text = "Think of a postal envelope. See https://example.org too."
    ann = ErrorAnnotation(Aspect.REFERENCES, 0, (0, 27), "bad analogy", "a1")
    total, errors = count_references(text, [ann])
    assert (total, errors) == (2, 1)


# ---------------------------------------------------------------------------
# Krippendorff alpha: hand-computed oracles


def test_alpha_perfect_agreement():
    rows = [["A", "A", "A"]] * 4
    assert krippendorff_alpha(rows) == pytest.approx(1.0, abs=1e-9)


def test_alpha_anti_agreement():
    rows = [["A", "B"], ["B", "A"]]
    assert krippendorff_alpha(rows) == pytest.approx(-1.0, abs=1e-9)


def test_alpha_mixed_two_annotators():
    # units (A,A) (A,A) (A,B) (B,B): observed 2/8; pooled margins 5 A, 3 B
    # expected 2*5*3/64; alpha = 1 - (2/8)/(30/64) = 7/15
    rows = [["A", "A"], ["A", "A"], ["A", "B"], ["B", "B"]]
    assert krippendorff_alpha(rows) == pytest.approx(7 / 15, abs=1e-9)


def test_alpha_with_missing_labels():
    # units after dropping missing: (A,A) (A,B,A) (B,B) (A,A,A)
    # coincidences: AA 6, AB 1, BA 1, BB 2 -> observed 2/10
    # margins 7 A, 3 B -> expected 42/100; alpha = 1 - 0.2/0.42 = 11/21
    rows = [
        ["A", "A", None],
        ["A", "B", "A"],
        [None, "B", "B"],
        ["A", "A", "A"],
    ]
    assert krippendorff_alpha(rows) == pytest.approx(11 / 21, abs=1e-9)


def test_alpha_three_categories_all_disagree():
    # units (A,B) (B,C) (C,A): observed 1; margins 2/2/2 -> expected 24/36
    rows = [["A", "B"], ["B", "C"], ["C", "A"]]
    assert krippendorff_alpha(rows) == pytest.approx(-0.5, abs=1e-9)


def test_alpha_items_with_single_label_excluded():
    base = [["A", "B"], ["B", "A"]]
    padded = base + [["A", None], [None, "B"]]
    assert krippendorff_alpha(padded) == pytest.approx(krippendorff_alpha(base), abs=1e-9)


def test_alpha_invariant_under_relabeling_and_column_swap():
    rng = random.Random(9)
    for _ in range(50):
        rows = [
            [rng.choice(["A", "B", "C"]) for _ in range(3)] for _ in range(rng.randint(2, 8))
        ]
        if all(len(set(r)) == 1 for r in rows) and len({r[0] for r in rows}) == 1:
            continue
        base = krippendorff_alpha(rows)
        relabeled = [[{"A": "x", "B": "y", "C": "z"}[v] for v in row] for row in rows]
        assert krippendorff_alpha(relabeled) == pytest.approx(base, abs=1e-12)
        permuted = [[row[1], row[2], row[0]] for row in rows]
        assert krippendorff_alpha(permuted) == pytest.approx(base, abs=1e-12)


def test_alpha_requires_two_annotators():
    with pytest.raises(ValueError):
        krippendorff_alpha([["A"], ["B"]])


# ---------------------------------------------------------------------------
# preference aggregation + domain report


def _pref_record(record_id, domain, choices, annotations=None):
    return make_record(
        record_id=record_id,
        domain=domain,
        annotations=annotations or [],
        preferences=[PreferenceJudgment(f"a{i}", c, "") for i, c in enumerate(choices)],
    )


def test_preference_shares_majority_and_tie():
    assert preference_shares(_pref_record("r", Domain.LAW, [0, 0, 1])) == (1.0, 0.0)
    assert preference_shares(_pref_record("r", Domain.LAW, [1, 1, 0])) == (0.0, 1.0)
    assert preference_shares(_pref_record("r", Domain.LAW, [0, 1])) == (0.5, 0.5)
    assert preference_shares(make_record(record_id="r")) is None


def test_domain_report_all_model_preferred():
    corpus = [_pref_record(f"r{i}", Domain.PHYSICS, [1, 1, 1]) for i in range(4)]
    report = domain_report(corpus)
    row = report.rows[0]
    assert row.domain == "physics"
    assert row.n_records == 4
    assert row.human_pref_pct == 0.0
    assert row.model_pref_pct == 100.0


def test_domain_report_percentages_sum_to_100():
    rng = random.Random(4)
    records = []
    for i in range(30):
        domain = rng.choice(list(Domain))
        choices = [rng.randint(0, 1) for _ in range(rng.choice([1, 2, 3]))]
        records.append(_pref_record(f"r{i}", domain, choices))
    report = domain_report(records)
    for row in report.rows + [report.average]:
        if row.human_pref_pct is not None:
            assert row.human_pref_pct + row.model_pref_pct == pytest.approx(100.0)


def test_domain_report_average_is_mean_of_domain_rows():
    records = [
        _pref_record("r1", Domain.LAW, [0, 0]),        # law: human 100%
        _pref_record("r2", Domain.PHYSICS, [1, 1]),     # physics: model 100%
    ]
    report = domain_report(records)
    assert report.average.human_pref_pct == pytest.approx(50.0)
    assert report.average.model_pref_pct == pytest.approx(50.0)
    assert report.average.n_records == 2


def test_domain_report_alpha_uses_multi_annotator_records():
    records = [
        _pref_record("r1", Domain.LAW, [0, 0]),
        _pref_record("r2", Domain.LAW, [1, 1]),
        _pref_record("r3", Domain.LAW, [0]),  # single label: excluded from alpha
    ]
    report = domain_report(records)
    assert report.rows[0].alpha == pytest.approx(1.0)


def test_score_record_aspect_and_overall():
    answer_text = "First sentence here. Second sentence here."
    record = make_record(
        record_id="r",
        answers=[Answer(Source.HUMAN, answer_text), Answer(Source.MODEL, answer_text)],
        annotations=[
            ErrorAnnotation(Aspect.COMPLETENESS, 0, (0, 10), "misses things", "a1"),
        ],
        preferences=[PreferenceJudgment("a1", 1, ""), PreferenceJudgment("a2", 1, "")],
    )
    human, model = score_record(record)
    assert human.scores[Aspect.COMPLETENESS] == pytest.approx(0.5)
    assert human.scores[Aspect.FACTUALITY] == 1.0
    assert human.scores[Aspect.REFERENCES] is None
    assert human.preference_score == 0.0
    assert model.preference_score == 1.0
    # human: (comp 0.5 + fact 1.0 + rel 1.0 + pref 0.0) / 4
    assert human.overall == pytest.approx(2.5 / 4)
    assert model.overall == pytest.approx(4.0 / 4)


def test_format_domain_table_contains_rows():
    corpus = [_pref_record("r1", Domain.LAW, [0, 1, 1])]
    table = format_domain_table(domain_report(corpus))
    assert "law" in table and "average" in table
