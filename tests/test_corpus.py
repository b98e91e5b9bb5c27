import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_record
from json_mutation import one_node_changed
from lfqa_eval.corpus import (
    CorpusError,
    classify_granularity,
    iter_corpus_records,
    load_corpus,
    project_spans,
    record_from_dict,
    record_to_dict,
    save_corpus,
    validate_record,
)
from lfqa_eval.models import (
    Answer,
    Aspect,
    Domain,
    ErrorAnnotation,
    PreferenceJudgment,
    QARecord,
    Source,
    SpanGranularity,
)
from lfqa_eval.segment import segment_sentences


def _record_line(record_id="q1", **extra):
    obj = {
        "id": record_id,
        "domain": "law",
        "question": "What is a trademark?",
        "answers": [{"source": "human", "text": "A trademark protects a logo."}],
        "annotations": [],
        "preferences": [],
    }
    obj.update(extra)
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# load_corpus


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_corpus(path)) == 0


def test_single_record(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_record_line() + "\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert corpus.get("q1").domain is Domain.LAW


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_record_line("q1") + "\n" + _record_line("q1") + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="q1"):
        load_corpus(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_record_line() + "\n{broken\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_schema_violation_reports_field(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_record_line(domain="astrology") + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="domain"):
        load_corpus(path)


def test_iter_corpus_records_lists_every_problem(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        "\n".join(
            [_record_line("q1"), "{broken", "", _record_line(domain="astrology"), _record_line("q1")]
        )
        + "\n",
        encoding="utf-8",
    )
    rows = list(iter_corpus_records(path))
    assert [(ln, record is None) for ln, record, _ in rows] == [
        (1, False), (2, True), (4, True), (5, False)
    ]
    assert rows[0][2] == []
    assert rows[1][2][0].startswith("malformed JSON")
    assert "domain" in rows[2][2][0]
    assert rows[3][2] == ["duplicate id 'q1' (first seen on line 1)"]
    with pytest.raises(CorpusError, match="line 2: malformed JSON"):
        load_corpus(path)


def test_round_trip(tmp_path):
    records = [
        make_record(
            record_id="r1",
            annotations=[
                ErrorAnnotation(Aspect.COMPLETENESS, 0, (0, 10), "too terse", "a1"),
                ErrorAnnotation(Aspect.QUESTION_MISCONCEPTION, None, (0, 4), "assumes", "a2"),
                ErrorAnnotation(Aspect.COMPLETENESS, 1, None, "whole answer", "a1"),
            ],
            preferences=[PreferenceJudgment("a1", 1, "clearer")],
        ),
        make_record(record_id="r2", domain=Domain.PHYSICS),
    ]
    path = tmp_path / "c.jsonl"
    save_corpus(records, path)
    loaded = load_corpus(path)
    assert loaded.records == records


def test_round_trip_random_records(tmp_path):
    rng = random.Random(11)
    records = []
    for i in range(25):
        answers = [
            Answer(rng.choice(list(Source)), f"Sentence {j} of answer. More text here.")
            for j in range(rng.randint(1, 3))
        ]
        annotations = []
        for _ in range(rng.randint(0, 4)):
            aidx = rng.randrange(len(answers))
            text = answers[aidx].text
            start = rng.randrange(len(text) - 1)
            end = rng.randint(start + 1, len(text))
            annotations.append(
                ErrorAnnotation(
                    rng.choice(
                        [Aspect.FACTUALITY, Aspect.RELEVANCE, Aspect.COMPLETENESS, Aspect.REFERENCES]
                    ),
                    aidx,
                    (start, end),
                    "j",
                    "a1",
                )
            )
        preferences = [
            PreferenceJudgment(f"a{k}", rng.randrange(len(answers)), "why")
            for k in range(rng.randint(0, 3))
        ]
        records.append(
            make_record(
                record_id=f"r{i}",
                domain=rng.choice(list(Domain)),
                answers=answers,
                annotations=annotations,
                preferences=preferences,
            )
        )
    path = tmp_path / "c.jsonl"
    save_corpus(records, path)
    assert load_corpus(path).records == records


# ---------------------------------------------------------------------------
# validate_record


def test_validate_out_of_bounds_span():
    record = make_record(
        annotations=[ErrorAnnotation(Aspect.FACTUALITY, 0, (0, 10_000), "", "a1")]
    )
    violations = validate_record(record)
    assert len(violations) == 1
    assert "annotations[0]" in violations[0]


def test_validate_bad_preference_choice():
    record = make_record(preferences=[PreferenceJudgment("a1", 5, "")])
    violations = validate_record(record)
    assert len(violations) == 1
    assert "choice 5" in violations[0]


def test_validate_whitespace_answer_is_empty():
    record = make_record(answers=[Answer(Source.HUMAN, "   ")])
    assert any("text is empty" in v for v in validate_record(record))


def test_validate_clean_record():
    record = make_record(
        annotations=[ErrorAnnotation(Aspect.RELEVANCE, 0, (0, 5), "", "a1")],
        preferences=[PreferenceJudgment("a1", 0, "")],
    )
    assert validate_record(record) == []


def test_validate_misconception_must_target_question():
    record = make_record(
        annotations=[ErrorAnnotation(Aspect.QUESTION_MISCONCEPTION, 0, (0, 5), "", "a1")]
    )
    assert any("must target the question" in v for v in validate_record(record))


def test_validate_answer_aspect_must_target_answer():
    record = make_record(
        annotations=[ErrorAnnotation(Aspect.FACTUALITY, None, (0, 5), "", "a1")]
    )
    assert any("must target an answer" in v for v in validate_record(record))


# ---------------------------------------------------------------------------
# project_spans


THREE_SENTENCES = "First sentence here. Second sentence here. Third sentence here."


def test_project_phrase_span_labels_one_sentence():
    sentences = segment_sentences(THREE_SENTENCES)
    # a phrase strictly inside sentence 2 (index 1)
    ann = ErrorAnnotation(Aspect.COMPLETENESS, 0, (28, 36), "too vague", "a1")
    labeling = project_spans(THREE_SENTENCES, sentences, [ann], Aspect.COMPLETENESS)
    assert labeling.errors == [False, True, False]
    assert labeling.justifications == [[], ["too vague"], []]


def test_project_span_covering_two_sentences():
    sentences = segment_sentences(THREE_SENTENCES)
    ann = ErrorAnnotation(Aspect.COMPLETENESS, 0, (10, 30), "spans two", "a1")
    labeling = project_spans(THREE_SENTENCES, sentences, [ann], Aspect.COMPLETENESS)
    assert labeling.errors == [True, True, False]
    assert labeling.justifications[0] == ["spans two"]
    assert labeling.justifications[1] == ["spans two"]


def test_project_whole_answer_labels_all_sentences():
    text = " ".join(f"Sentence number {i}." for i in range(6))
    sentences = segment_sentences(text)
    assert len(sentences) == 6
    ann = ErrorAnnotation(Aspect.COMPLETENESS, 0, None, "incomplete overall", "a1")
    labeling = project_spans(text, sentences, [ann], Aspect.COMPLETENESS)
    assert labeling.errors == [True] * 6
    assert all(j == ["incomplete overall"] for j in labeling.justifications)


def test_project_justifications_in_annotation_order():
    sentences = segment_sentences(THREE_SENTENCES)
    anns = [
        ErrorAnnotation(Aspect.COMPLETENESS, 0, (0, 5), "first", "a1"),
        ErrorAnnotation(Aspect.COMPLETENESS, 0, (2, 7), "second", "a2"),
    ]
    labeling = project_spans(THREE_SENTENCES, sentences, anns, Aspect.COMPLETENESS)
    assert labeling.justifications[0] == ["first", "second"]


def test_project_monotone_under_added_annotations():
    rng = random.Random(3)
    sentences = segment_sentences(THREE_SENTENCES)
    anns = []
    previous = [False] * len(sentences)
    for _ in range(10):
        start = rng.randrange(len(THREE_SENTENCES) - 1)
        end = rng.randint(start + 1, len(THREE_SENTENCES))
        anns.append(ErrorAnnotation(Aspect.RELEVANCE, 0, (start, end), "x", "a"))
        labeling = project_spans(THREE_SENTENCES, sentences, anns, Aspect.RELEVANCE)
        assert all(not was or now for was, now in zip(previous, labeling.errors))
        previous = labeling.errors


def test_project_rejects_wrong_aspect():
    sentences = segment_sentences(THREE_SENTENCES)
    ann = ErrorAnnotation(Aspect.FACTUALITY, 0, (0, 5), "", "a1")
    with pytest.raises(ValueError, match="aspect"):
        project_spans(THREE_SENTENCES, sentences, [ann], Aspect.COMPLETENESS)


# ---------------------------------------------------------------------------
# classify_granularity


def test_exact_sentence_range_is_sentence():
    sentences = segment_sentences(THREE_SENTENCES)
    s = sentences[2]
    assert (
        classify_granularity(s.start, s.end, sentences, THREE_SENTENCES)
        is SpanGranularity.SENTENCE
    )


def test_short_inner_span_is_phrase():
    sentences = segment_sentences(THREE_SENTENCES)
    s = sentences[0]
    assert (
        classify_granularity(s.start + 2, s.start + 7, sentences, THREE_SENTENCES)
        is SpanGranularity.PHRASE
    )


def test_boundary_crossing_span_is_multi_sentence():
    sentences = segment_sentences(THREE_SENTENCES)
    span = (sentences[1].end - 4, sentences[2].start + 4)
    assert (
        classify_granularity(span[0], span[1], sentences, THREE_SENTENCES)
        is SpanGranularity.MULTI_SENTENCE
    )


def test_trailing_space_snaps_to_sentence():
    sentences = segment_sentences(THREE_SENTENCES)
    s = sentences[0]
    # annotator dragged one char past the sentence end (the space)
    assert (
        classify_granularity(s.start, s.end + 1, sentences, THREE_SENTENCES)
        is SpanGranularity.SENTENCE
    )


def test_alphanumeric_slack_does_not_snap():
    sentences = segment_sentences(THREE_SENTENCES)
    s = sentences[0]
    # two missing letters are content, not slack
    assert (
        classify_granularity(s.start + 2, s.end, sentences, THREE_SENTENCES)
        is SpanGranularity.PHRASE
    )


def test_granularity_partitions_randomly():
    rng = random.Random(5)
    text = " ".join(f"Sentence number {i} is right here." for i in range(5))
    sentences = segment_sentences(text)
    for _ in range(300):
        start = rng.randrange(len(text) - 1)
        end = rng.randint(start + 1, len(text))
        result = classify_granularity(start, end, sentences, text)
        assert result in (
            SpanGranularity.PHRASE,
            SpanGranularity.SENTENCE,
            SpanGranularity.MULTI_SENTENCE,
        )


# ---------------------------------------------------------------------------
# parsing details


def test_target_and_span_schema():
    obj = {
        "id": "x",
        "domain": "physics",
        "question": "Q?",
        "answers": [{"source": "model", "text": "A full answer."}],
        "annotations": [
            {
                "aspect": "completeness",
                "target": {"answer": 0},
                "span": {"whole_answer": True},
                "justification": "",
                "annotator": "a",
            }
        ],
        "preferences": [],
    }
    record = record_from_dict(obj)
    assert record.annotations[0].whole_answer
    assert record_to_dict(record)["annotations"][0]["span"] == {"whole_answer": True}


def test_unicode_offsets_count_codepoints(tmp_path):
    text = "Cafés brew ☕ coffee. Many people enjoy it."
    first_end = text.index(".") + 1
    record = make_record(
        record_id="u1",
        answers=[Answer(Source.HUMAN, text)],
        annotations=[
            ErrorAnnotation(Aspect.COMPLETENESS, 0, (0, first_end), "terse", "a1")
        ],
    )
    assert validate_record(record) == []
    spans = segment_sentences(text)
    assert (spans[0].start, spans[0].end) == (0, first_end)
    labeling = project_spans(
        text, spans, record.annotations_for(Aspect.COMPLETENESS, 0), Aspect.COMPLETENESS
    )
    assert labeling.errors == [True, False]
    assert (
        classify_granularity(0, first_end, spans, text) is SpanGranularity.SENTENCE
    )
    path = tmp_path / "u.jsonl"
    save_corpus([record], path)
    assert load_corpus(path).records == [record]


def test_bad_target_schema_names_field():
    obj = json.loads(_record_line())
    obj["annotations"] = [
        {"aspect": "factuality", "target": 3, "span": {"start": 0, "end": 2}}
    ]
    with pytest.raises(CorpusError, match="target"):
        record_from_dict(obj)


# ---------------------------------------------------------------------------
# one typed-field rule


def _annotated_line(**annotation) -> dict:
    obj = json.loads(_record_line())
    obj["annotations"] = [
        {
            "aspect": "completeness",
            "target": {"answer": 0},
            "span": {"start": 0, "end": 12},
            "justification": "terse",
            "annotator": "a1",
            **annotation,
        }
    ]
    return obj


@pytest.mark.parametrize(
    "obj, message",
    [
        (json.loads(_record_line(annotations=5)), "record 'q1': annotations 5 is not a list"),
        (json.loads(_record_line(annotations=True)), "record 'q1': annotations True is not a list"),
        (json.loads(_record_line(annotations=None)), "record 'q1': annotations None is not a list"),
        (json.loads(_record_line(preferences=7)), "record 'q1': preferences 7 is not a list"),
        (json.loads(_record_line(preferences=True)), "record 'q1': preferences True is not a list"),
        (json.loads(_record_line(preferences=None)), "record 'q1': preferences None is not a list"),
        (json.loads(_record_line(annotations="")), "record 'q1': annotations '' is not a list"),
        (json.loads(_record_line(annotations={})), "record 'q1': annotations {} is not a list"),
        (
            _annotated_line(span={"start": True, "end": 12}),
            "record 'q1' annotations[0] span: start True is not an integer >= 0",
        ),
        (
            _annotated_line(span={"start": 0, "end": True}),
            "record 'q1' annotations[0] span: end True is not an integer >= 0",
        ),
        (
            _annotated_line(target={"answer": True}),
            "record 'q1' annotations[0] target: answer True is not an integer >= 0",
        ),
        (
            _annotated_line(justification=None),
            "record 'q1' annotations[0]: justification None is not a string",
        ),
    ],
    ids=[
        "annotations-number",
        "annotations-bool",
        "annotations-null",
        "preferences-number",
        "preferences-bool",
        "preferences-null",
        "annotations-empty-string",
        "annotations-empty-object",
        "bool-start",
        "bool-end",
        "bool-target-answer",
        "null-justification",
    ],
)
def test_mistyped_field_is_a_corpus_error_naming_it(obj, message, tmp_path):
    with pytest.raises(CorpusError) as excinfo:
        record_from_dict(obj)
    assert str(excinfo.value) == message
    path = tmp_path / "c.jsonl"
    path.write_text(_record_line("q0") + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
    assert [(ln, problems) for ln, _, problems in iter_corpus_records(path)] == [
        (1, []),
        (2, [message]),
    ]


def test_integral_float_reads_as_an_index():
    obj = _annotated_line(target={"answer": 0.0}, span={"start": 0.0, "end": 12.0})
    obj["preferences"] = [{"annotator": "a1", "choice": 0.0}]
    record = record_from_dict(obj)
    assert record.annotations[0].answer_index == 0
    assert record.annotations[0].span == (0, 12)
    assert record.preferences[0].choice == 0
    assert all(
        type(n) is int
        for n in (record.annotations[0].answer_index, *record.annotations[0].span,
                  record.preferences[0].choice)
    )


# ---------------------------------------------------------------------------
# properties: round trip and totality of the corpus reader


_texts = st.text(max_size=12)
_indexes = st.integers(min_value=0, max_value=2**64)
_records = st.builds(
    QARecord,
    id=_texts,
    domain=st.sampled_from(Domain),
    question=_texts,
    answers=st.lists(st.builds(Answer, st.sampled_from(Source), _texts), max_size=3),
    annotations=st.lists(
        st.builds(
            ErrorAnnotation,
            st.sampled_from(Aspect),
            st.none() | _indexes,
            st.none() | st.tuples(_indexes, _indexes),
            _texts,
            _texts,
        ),
        max_size=3,
    ),
    preferences=st.lists(st.builds(PreferenceJudgment, _texts, _indexes, _texts), max_size=3),
)


@given(record=_records)
def test_record_round_trips(record):
    assert record_from_dict(record_to_dict(record)) == record
    assert record_from_dict(json.loads(json.dumps(record_to_dict(record)))) == record


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus-fuzz")


@given(data=st.data(), record=_records)
def test_one_changed_node_is_read_or_named_by_line(data, record, fuzz_dir):
    """A line with one node changed yields problems on its own line or a record
    that round-trips; nothing else escapes the reader."""
    line = data.draw(one_node_changed(record_to_dict(record)))
    path = fuzz_dir / "c.jsonl"
    path.write_text(_record_line("first") + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    rows = list(iter_corpus_records(path))
    assert [ln for ln, _, _ in rows] == [1, 2]
    assert rows[0][1:] == (record_from_dict(json.loads(_record_line("first"))), [])
    _, read, problems = rows[1]
    if read is None:
        assert problems
    else:
        assert record_from_dict(record_to_dict(read)) == read
    if problems:
        with pytest.raises(CorpusError, match="^line 2: "):
            load_corpus(path)
    else:
        assert load_corpus(path).records[1] == read
