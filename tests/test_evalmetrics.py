import random

import pytest

from conftest import make_record, run_python
from lfqa_eval.evalmetrics import (
    DetectionCounts,
    ErrorScoreRecord,
    SupportJudgment,
    classify_detections,
    completeness_gold,
    correction_prf,
    detection_eval,
    error_report,
    selfcheck_aggregate,
    weighted_accuracy,
)
from lfqa_eval.feedback import TAG_COMPLETE, TAG_INCOMPLETE
from lfqa_eval.models import Answer, Aspect, ErrorAnnotation, Source


# ---------------------------------------------------------------------------
# classify_detections


def test_classify_exact():
    counts = classify_detections({2}, {2}, 6)
    assert (counts.exact, counts.adjacent, counts.different) == (1, 0, 0)


def test_classify_adjacent():
    counts = classify_detections({3}, {2}, 6)
    assert (counts.exact, counts.adjacent, counts.different) == (0, 1, 0)


def test_classify_different():
    counts = classify_detections({0, 5}, {2}, 6)
    assert (counts.exact, counts.adjacent, counts.different) == (0, 0, 2)


def test_classify_priority_exact_over_adjacent():
    # 2 is in gold and beside gold 3: counts as exact only
    counts = classify_detections({2}, {2, 3}, 6)
    assert (counts.exact, counts.adjacent, counts.different) == (1, 0, 0)


def test_classify_out_of_range():
    with pytest.raises(ValueError):
        classify_detections({9}, {0}, 4)


def brute_classify(predicted, gold):
    """Test every (p, g) pair exhaustively."""
    exact = adjacent = different = 0
    for p in predicted:
        if any(p == g for g in gold):
            exact += 1
        elif any(abs(p - g) == 1 for g in gold):
            adjacent += 1
        else:
            different += 1
    return exact, adjacent, different


def test_classify_matches_brute_force_and_partitions():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 8)
        predicted = {i for i in range(n) if rng.random() < 0.4}
        gold = {i for i in range(n) if rng.random() < 0.4}
        counts = classify_detections(predicted, gold, n)
        assert (counts.exact, counts.adjacent, counts.different) == brute_classify(
            predicted, gold
        )
        assert counts.total_predicted == len(predicted)


# ---------------------------------------------------------------------------
# weighted_accuracy


def test_weighted_accuracy_hand_case():
    counts = DetectionCounts(exact=4, adjacent=3, different=3)
    assert weighted_accuracy(counts) == pytest.approx(0.58)


def test_weighted_accuracy_bounds():
    assert weighted_accuracy(DetectionCounts(exact=7)) == 1.0
    assert weighted_accuracy(DetectionCounts(different=3)) == pytest.approx(0.1)


def test_weighted_accuracy_undefined_without_predictions():
    with pytest.raises(ValueError, match="no predictions"):
        weighted_accuracy(DetectionCounts())


def test_weighted_accuracy_random_within_weight_range():
    rng = random.Random(5)
    for _ in range(1000):
        counts = DetectionCounts(
            exact=rng.randint(0, 10), adjacent=rng.randint(0, 10), different=rng.randint(0, 10)
        )
        if counts.total_predicted == 0:
            continue
        value = weighted_accuracy(counts)
        assert 0.1 - 1e-12 <= value <= 1.0 + 1e-12
        expected = (
            1.0 * counts.exact + 0.5 * counts.adjacent + 0.1 * counts.different
        ) / counts.total_predicted
        assert value == expected


# ---------------------------------------------------------------------------
# correction_prf


def test_correction_perfect():
    baseline = {"a": True, "b": True, "c": False}
    refined = {"a": False, "b": False, "c": False}
    report = correction_prf(baseline, refined)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert not report.degenerate


def test_correction_hand_case():
    baseline = {"a": True, "b": True, "c": False, "d": False}
    refined = {"a": False, "b": True, "c": True, "d": False}
    report = correction_prf(baseline, refined)
    assert (report.tp, report.fn, report.fp) == (1, 1, 1)
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == pytest.approx(0.5)


def test_correction_degenerate_no_baseline_flags():
    baseline = {"a": False, "b": False}
    report = correction_prf(baseline, {"a": False, "b": True})
    assert report.degenerate
    assert report.recall == 0.0
    assert report.precision == 0.0


def test_correction_f1_zero_iff_tp_zero():
    rng = random.Random(8)
    for _ in range(200):
        keys = [f"k{i}" for i in range(rng.randint(1, 10))]
        baseline = {k: rng.random() < 0.5 for k in keys}
        refined = {k: rng.random() < 0.5 for k in keys}
        report = correction_prf(baseline, refined)
        assert (report.f1 == 0.0) == (report.tp == 0)


def test_correction_key_mismatch():
    with pytest.raises(ValueError, match="key sets"):
        correction_prf({"a": True}, {"b": True})


def test_correction_invariant_under_relabeling():
    baseline = {"a": True, "b": False, "c": True}
    refined = {"a": False, "b": True, "c": True}
    renamed_b = {f"x{k}": v for k, v in baseline.items()}
    renamed_r = {f"x{k}": v for k, v in refined.items()}
    assert correction_prf(baseline, refined) == correction_prf(renamed_b, renamed_r)


# ---------------------------------------------------------------------------
# error_report


def _scores(values):
    return [ErrorScoreRecord(f"r{i}", v) for i, v in enumerate(values)]


def test_error_report_all_clean():
    assert error_report(_scores([0, 0, 0])) == (0.0, 0.0)


def test_error_report_hand_case():
    pct, mean = error_report(_scores([0, 0, 1.2, 0.6]))
    assert pct == 50.0
    assert mean == pytest.approx(0.45)


def test_error_report_single_flagged():
    pct, mean = error_report(_scores([0.63]))
    assert pct == 100.0
    assert mean == pytest.approx(0.63)


def test_error_report_empty_rejected():
    with pytest.raises(ValueError):
        error_report([])


def test_flagged_iff_positive_score():
    assert not ErrorScoreRecord("r", 0.0).flagged
    assert ErrorScoreRecord("r", 0.0001).flagged
    for score in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ErrorScoreRecord("r", score)


# ---------------------------------------------------------------------------
# selfcheck_aggregate


def test_selfcheck_all_yes():
    report = selfcheck_aggregate([SupportJudgment(0, ("yes", "yes", "yes"))])
    assert report.per_sentence == [1.0]
    assert report.answer_support == 1.0
    assert report.answer_inconsistency == 0.0


def test_selfcheck_mapping_hand_case():
    report = selfcheck_aggregate([SupportJudgment(0, ("yes", "no", "not_applicable"))])
    assert report.per_sentence == [pytest.approx(0.5)]


def test_selfcheck_answer_mean():
    report = selfcheck_aggregate(
        [SupportJudgment(0, ("yes",)), SupportJudgment(1, ("no",))]
    )
    assert report.answer_support == 0.5
    assert report.answer_inconsistency == 0.5


def test_selfcheck_verdict_aliases_and_unknowns():
    report = selfcheck_aggregate([SupportJudgment(0, ("Yes", "N/A"))])
    assert report.per_sentence == [pytest.approx(0.75)]
    with pytest.raises(ValueError, match="verdict"):
        selfcheck_aggregate([SupportJudgment(0, ("maybe",))])


def test_selfcheck_permutation_invariant_and_monotone():
    rng = random.Random(3)
    for _ in range(100):
        verdicts = [rng.choice(["yes", "no", "not_applicable"]) for _ in range(6)]
        base = selfcheck_aggregate([SupportJudgment(0, tuple(verdicts))]).answer_support
        shuffled = verdicts[:]
        rng.shuffle(shuffled)
        assert selfcheck_aggregate(
            [SupportJudgment(0, tuple(shuffled))]
        ).answer_support == pytest.approx(base)
        if "no" in verdicts:
            improved = verdicts[:]
            improved[improved.index("no")] = "yes"
            assert (
                selfcheck_aggregate([SupportJudgment(0, tuple(improved))]).answer_support
                > base
            )


def test_selfcheck_requires_verdicts():
    with pytest.raises(ValueError):
        SupportJudgment(0, ())


# ---------------------------------------------------------------------------
# detection_eval over a corpus


TWO_SENTENCES = "First sentence here. Second sentence here."


def _detect_record(record_id, gold_indices):
    sentence_spans = [(0, 20), (21, 42)]
    annotations = [
        ErrorAnnotation(Aspect.COMPLETENESS, 0, sentence_spans[i], "gold", "a1")
        for i in gold_indices
    ]
    return make_record(
        record_id=record_id,
        answers=[Answer(Source.MODEL, TWO_SENTENCES)],
        annotations=annotations,
    )


def _prediction(tags):
    """(tag count, Incomplete indices), the shape of a completeness_gold entry."""
    return len(tags), tuple(i for i, tag in enumerate(tags) if tag == TAG_INCOMPLETE)


def test_completeness_gold_is_sentence_count_and_gold_indices_per_answer():
    record = make_record(
        record_id="r1",
        answers=[Answer(Source.MODEL, TWO_SENTENCES), Answer(Source.HUMAN, "Only one.")],
        annotations=[
            ErrorAnnotation(Aspect.COMPLETENESS, 0, (25, 30), "gold", "a1"),
            ErrorAnnotation(Aspect.FACTUALITY, 1, None, "not completeness", "a1"),
        ],
    )
    assert completeness_gold([record, _detect_record("r2", [])]) == {
        "r1": [(2, (1,)), (1, ())],
        "r2": [(2, ())],
    }


def test_detection_eval_perfect_predictions():
    gold = completeness_gold([_detect_record("r1", [0]), _detect_record("r2", [1])])
    predictions = [
        (("r1", 0), _prediction([TAG_INCOMPLETE, TAG_COMPLETE])),
        (("r2", 0), _prediction([TAG_COMPLETE, TAG_INCOMPLETE])),
    ]
    report = detection_eval(gold, predictions)
    assert report.weighted_accuracy == 1.0
    assert report.misses == 0
    assert report.counts.exact == 2


def test_detection_eval_adjacent_case():
    gold = completeness_gold([_detect_record("r1", [1])])
    predictions = [(("r1", 0), _prediction([TAG_INCOMPLETE, TAG_COMPLETE]))]
    report = detection_eval(gold, predictions)
    assert report.counts.adjacent == 1
    assert report.weighted_accuracy == pytest.approx(0.5)


def test_detection_eval_missed_record_excluded_from_denominator():
    gold = completeness_gold([_detect_record("r1", [1]), _detect_record("r2", [0])])
    predictions = [
        (("r1", 0), _prediction([TAG_COMPLETE, TAG_COMPLETE])),  # miss: gold but no predictions
        (("r2", 0), _prediction([TAG_INCOMPLETE, TAG_COMPLETE])),
    ]
    report = detection_eval(gold, predictions)
    assert report.misses == 1
    assert report.counts.total_predicted == 1
    assert report.weighted_accuracy == 1.0


def test_detection_eval_tag_length_mismatch():
    gold = completeness_gold([_detect_record("r1", [0])])
    with pytest.raises(ValueError, match="2 sentences"):
        detection_eval(gold, [(("r1", 0), _prediction([TAG_COMPLETE]))])


def test_detection_eval_bad_answer_index():
    gold = completeness_gold([_detect_record("r1", [0])])
    with pytest.raises(ValueError, match="answer index 3"):
        detection_eval(gold, [(("r1", 3), _prediction([TAG_INCOMPLETE, TAG_COMPLETE]))])


def test_detection_eval_unknown_record_skipped():
    gold = completeness_gold([_detect_record("r1", [0])])
    predictions = [
        (("r1", 0), _prediction([TAG_INCOMPLETE, TAG_COMPLETE])),
        (("ghost", 0), _prediction([TAG_COMPLETE])),
    ]
    report = detection_eval(gold, predictions)
    assert report.skipped == ["ghost"]
    assert report.n_records == 1


def test_metrics_layer_imports_no_generation_stack():
    code = (
        "import sys\n"
        "import lfqa_eval.corpus, lfqa_eval.evalmetrics, lfqa_eval.scoring\n"
        "loaded = sorted(m for m in ('requests', 'lfqa_eval.genclient', 'lfqa_eval.feedback')"
        " if m in sys.modules)\n"
        "print(','.join(loaded))\n"
    )
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
