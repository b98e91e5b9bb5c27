import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfqa_eval import feedback as feedback_module
from lfqa_eval.feedback import (
    FeedbackSample,
    TAG_COMPLETE,
    TAG_INCOMPLETE,
    build_feedback_prompt,
    format_feedback_output,
    parse_feedback_output,
    reason_consistency,
    reason_consistency_raw,
    run_feedback,
    select_feedback,
    tag_consistency,
    tokenize_reasons,
)
from lfqa_eval.genclient import BackendConfig, FixtureStore, GenerationClient
from lfqa_eval.refine import RefineMode, build_refine_prompt, run_eir


def sample(tags, reasons=None, parse_ok=True):
    return FeedbackSample(
        tags=list(tags), reasons=dict(reasons or {}), raw="", parse_ok=parse_ok
    )


C, I = TAG_COMPLETE, TAG_INCOMPLETE


# ---------------------------------------------------------------------------
# prompt


EXPECTED_PROMPT = (
    "### Instruction:\n"
    "When given a question and answer statements, evaluate whether each given "
    "statement provides sufficient information for answering the question. \n"
    "Use the '[Incomplete]' tag to indicate answer incompleteness, and "
    "'[Complete]' tag to indicate completeness, with reasons.\n"
    "Please note that the answer can have single, multiple or no incomplete "
    "statements.\n"
    "\n"
    "### Input:\n"
    "Question: Why?\n"
    "Answer: 1. A.\n"
    "2. B.\n"
    "\n"
    "### Response:"
)


def test_prompt_exact_template():
    assert build_feedback_prompt("Why?", ["A.", "B."]) == EXPECTED_PROMPT


def test_prompt_numbered_sentences():
    prompt = build_feedback_prompt("q", ["A.", "B."])
    assert "1. A.\n2. B." in prompt
    assert prompt.index("### Input:") < prompt.index("1. A.")


def test_prompt_single_sentence():
    prompt = build_feedback_prompt("q", ["Only."])
    assert "Answer: 1. Only.\n" in prompt
    assert "2." not in prompt.split("### Input:")[1]


def test_prompt_deterministic():
    args = ("q", ["A.", "B.", "C."])
    assert build_feedback_prompt(*args) == build_feedback_prompt(*args)


def test_prompt_requires_sentences():
    with pytest.raises(ValueError):
        build_feedback_prompt("q", [])


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_two_tags():
    text = "1. [Complete]\n2. [Incomplete] Reasons: missing drainage detail."
    parsed = parse_feedback_output(text, 2)
    assert parsed.parse_ok
    assert parsed.tags == [C, I]
    assert parsed.reasons == {1: "missing drainage detail."}


def test_parse_count_mismatch():
    parsed = parse_feedback_output("1. [Complete]", 2)
    assert not parsed.parse_ok
    assert any("expected 2 tags, found 1" in d for d in parsed.diagnostics)


def test_parse_multiline_reason():
    text = "1. [Incomplete] Reasons: a\nb\n2. [Complete]"
    parsed = parse_feedback_output(text, 2)
    assert parsed.parse_ok
    assert parsed.reasons == {0: "a\nb"}


def test_parse_unknown_tag():
    parsed = parse_feedback_output("1. [Partial]", 1)
    assert not parsed.parse_ok
    assert any("unknown tag" in d for d in parsed.diagnostics)


def test_parse_non_contiguous_numbering():
    parsed = parse_feedback_output("2. [Complete]\n1. [Complete]", 2)
    assert not parsed.parse_ok
    assert any("numbering" in d for d in parsed.diagnostics)


def test_parse_incomplete_without_reasons_marker():
    parsed = parse_feedback_output("1. [Incomplete] it is bad", 1)
    assert not parsed.parse_ok
    assert parsed.diagnostics


def test_parse_leading_chatter_fails():
    parsed = parse_feedback_output("Sure, here you go:\n1. [Complete]", 1)
    assert not parsed.parse_ok
    assert parsed.diagnostics


def test_parse_blank_lines_tolerated():
    parsed = parse_feedback_output("\n1. [Complete]\n\n2. [Complete]\n", 2)
    assert parsed.parse_ok


def test_parse_empty_text():
    parsed = parse_feedback_output("", 1)
    assert not parsed.parse_ok
    assert any("found 0" in d for d in parsed.diagnostics)


def test_format_parse_round_trip_simple():
    original = sample([C, I, C], {1: "needs more depth"})
    rendered = format_feedback_output(original)
    parsed = parse_feedback_output(rendered, 3)
    assert parsed.parse_ok
    assert parsed.tags == original.tags
    assert parsed.reasons == original.reasons


WORDS = ["missing", "drainage", "erosion", "cost", "detail", "cover", "depth", "why"]


def random_valid_sample(rng: random.Random) -> FeedbackSample:
    n = rng.randint(1, 6)
    tags = [rng.choice([C, I]) for _ in range(n)]
    reasons = {}
    for i, tag in enumerate(tags):
        if tag == I:
            reason = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))
            if rng.random() < 0.3:  # multi-line continuation
                reason += "\n" + " ".join(rng.choice(WORDS) for _ in range(3))
            reasons[i] = reason
    return sample(tags, reasons)


def test_format_parse_identity_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        original = random_valid_sample(rng)
        parsed = parse_feedback_output(format_feedback_output(original), len(original.tags))
        assert parsed.parse_ok, parsed.diagnostics
        assert parsed.tags == original.tags
        assert parsed.reasons == original.reasons


# ---------------------------------------------------------------------------
# tag consistency


def test_tag_consistency_identical():
    samples = [sample([C, I]) for _ in range(3)]
    assert tag_consistency(samples) == [1.0, 1.0, 1.0]


def test_tag_consistency_majority():
    samples = [sample([C, I]), sample([C, I]), sample([C, C])]
    assert tag_consistency(samples) == pytest.approx([2 / 3, 2 / 3, 1 / 3])


def test_tag_consistency_all_distinct():
    samples = [sample([C, C]), sample([C, I]), sample([I, C]), sample([I, I])]
    assert tag_consistency(samples) == [0.25, 0.25, 0.25, 0.25]


def test_tag_consistency_self_exclusive_shift():
    samples = [sample([C, I]), sample([C, I]), sample([C, C])]
    inclusive = tag_consistency(samples, include_self=True)
    exclusive = tag_consistency(samples, include_self=False)
    n = len(samples)
    for with_self, without in zip(inclusive, exclusive):
        assert with_self == pytest.approx(without + 1 / n)


def test_tag_consistency_rejects_bad_input():
    with pytest.raises(ValueError):
        tag_consistency([])
    with pytest.raises(ValueError):
        tag_consistency([sample([C]), sample([C, C])])
    with pytest.raises(ValueError):
        tag_consistency([sample([C], parse_ok=False)])


# ---------------------------------------------------------------------------
# reason consistency


def test_reason_consistency_identical_reasons():
    samples = [sample([I], {0: "ballast helps drainage"}) for _ in range(3)]
    assert reason_consistency(samples) == [1.0, 1.0, 1.0]


def test_reason_consistency_hand_case():
    samples = [
        sample([I], {0: "ballast drainage"}),
        sample([I], {0: "drainage helps"}),
        sample([I], {0: "cost"}),
    ]
    scores = reason_consistency(samples)
    assert scores[0] == pytest.approx(0.25)  # ballast in 0 others, drainage in 1
    assert scores[1] == pytest.approx(0.25)
    assert scores[2] == 0.0


def test_reason_consistency_disjoint():
    samples = [sample([I], {0: "alpha beta"}), sample([I], {0: "gamma delta"})]
    assert reason_consistency(samples) == [0.0, 0.0]


def test_reason_consistency_no_reasons_anywhere():
    samples = [sample([C, C]) for _ in range(3)]
    assert reason_consistency(samples) == [1.0, 1.0, 1.0]


def test_reason_consistency_single_survivor():
    assert reason_consistency([sample([I], {0: "anything"})]) == [1.0]


def test_tokenize_lowercases_and_splits():
    s = sample([I, I], {0: "Needs DRAINAGE, badly!", 1: "costs 40% more"})
    assert tokenize_reasons(s) == ["needs", "drainage", "badly", "costs", "40", "more"]


# ---------------------------------------------------------------------------
# brute-force equivalence + argmax invariance


def brute_tag(samples, include_self):
    n = len(samples)
    scores = []
    for i in range(n):
        count = 0
        for j in range(n):
            if i == j and not include_self:
                continue
            if samples[j].tags == samples[i].tags:
                count += 1
        scores.append(count / n)
    return scores


def brute_reason_hits(samples):
    """Cross-sample token hits per sample, by explicit double loop."""
    token_lists = [tokenize_reasons(s) for s in samples]
    hits = []
    for i, tokens in enumerate(token_lists):
        total = 0
        for token in tokens:
            for j, other in enumerate(token_lists):
                if j != i and token in set(other):
                    total += 1
        hits.append(total)
    return hits, [len(t) for t in token_lists]


def random_sample_set(rng: random.Random) -> list[FeedbackSample]:
    n_sentences = rng.randint(1, 4)
    vocabulary = WORDS[: rng.randint(2, len(WORDS))]
    samples = []
    for _ in range(rng.randint(1, 8)):
        tags = [rng.choice([C, I]) for _ in range(n_sentences)]
        reasons = {
            i: " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 5)))
            for i, t in enumerate(tags)
            if t == I
        }
        samples.append(sample(tags, reasons))
    return samples


def test_consistency_matches_brute_force_and_argmax_invariance():
    rng = random.Random(1234)
    for _ in range(500):
        samples = random_sample_set(rng)
        n = len(samples)

        inclusive = tag_consistency(samples, include_self=True)
        exclusive = tag_consistency(samples, include_self=False)
        assert inclusive == brute_tag(samples, True)
        assert exclusive == brute_tag(samples, False)
        # stage-1 argmax set identical under both variants
        argmax_inc = {i for i, s in enumerate(inclusive) if s == max(inclusive)}
        argmax_exc = {i for i, s in enumerate(exclusive) if s == max(exclusive)}
        assert argmax_inc == argmax_exc
        assert all(s >= 1 / n for s in inclusive)  # self-match floor

        survivors = [samples[i] for i in sorted(argmax_inc)]
        normalized = reason_consistency(survivors)
        raw = reason_consistency_raw(survivors)
        hits, sizes = brute_reason_hits(survivors)
        m = len(survivors)
        for i, (h, size) in enumerate(zip(hits, sizes)):
            if size == 0:
                continue
            assert normalized[i] == h / (size * (m - 1)) if m > 1 else normalized[i] == 1.0
            assert raw[i] == (h + size) / size
        # stage-2 ranking identical under normalized and raw scoring
        if m > 1:
            with_tokens = [i for i, size in enumerate(sizes) if size > 0]
            for i in with_tokens:
                for j in with_tokens:
                    norm_cmp = Fraction(hits[i], sizes[i] * (m - 1)) - Fraction(
                        hits[j], sizes[j] * (m - 1)
                    )
                    raw_cmp = Fraction(hits[i] + sizes[i], sizes[i]) - Fraction(
                        hits[j] + sizes[j], sizes[j]
                    )
                    assert (norm_cmp > 0) == (raw_cmp > 0)
                    assert (norm_cmp == 0) == (raw_cmp == 0)


def brute_reason(samples):
    """reason_consistency by the rules of its docstring, over brute-force hits."""
    if len(samples) == 1:
        return [1.0]
    hits, sizes = brute_reason_hits(samples)
    no_reasons = 0.0 if any(sizes) else 1.0
    m = len(samples)
    return [h / (size * (m - 1)) if size else no_reasons for h, size in zip(hits, sizes)]


def brute_reason_raw(samples):
    hits, sizes = brute_reason_hits(samples)
    return [(h + size) / size if size else 0.0 for h, size in zip(hits, sizes)]


def brute_select(samples):
    """(selected, tag score, reason score) of the two-stage selection, by brute force."""
    parseable = [s for s in samples if s.parse_ok]
    tag_scores = brute_tag(parseable, True)
    survivors = [s for s, t in zip(parseable, tag_scores) if t == max(tag_scores)]
    reason_scores = brute_reason(survivors)
    best = reason_scores.index(max(reason_scores))  # earliest of the best
    return survivors[best], max(tag_scores), reason_scores[best]


@st.composite
def paper_sized_samples(draw):
    """1-20 sampled outputs drawn from a few distinct ones, as a feedback model
    repeats itself: the same object at several positions (equal texts share one
    parse), equal copies, samples without reasons (all Complete, or reasons
    with no tokens) and unparseable samples."""
    n_sentences = draw(st.integers(1, 4))
    vocabulary = WORDS[: draw(st.integers(1, len(WORDS)))] + ["!"]

    def distinct_sample():
        if draw(st.integers(0, 9)) == 0:
            return sample([], parse_ok=False)
        tags = draw(st.lists(st.sampled_from([C, I]), min_size=n_sentences, max_size=n_sentences))
        reasons = {
            i: " ".join(draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=5)))
            for i, tag in enumerate(tags)
            if tag == I
        }
        return sample(tags, reasons)

    pool = [distinct_sample() for _ in range(draw(st.integers(1, 5)))]
    picks = draw(
        st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), min_size=1, max_size=20)
    )
    return [pool[k] if shared else copy.deepcopy(pool[k]) for k, shared in picks]


@settings(max_examples=400, deadline=None)
@given(samples=paper_sized_samples())
def test_consistency_and_selection_equal_brute_force_on_repeated_samples(samples):
    parseable = [s for s in samples if s.parse_ok]
    if not parseable:
        with pytest.raises(ValueError, match="parseable"):
            select_feedback(samples)
        return
    assert tag_consistency(parseable, include_self=True) == brute_tag(parseable, True)
    assert tag_consistency(parseable, include_self=False) == brute_tag(parseable, False)
    assert reason_consistency(parseable) == brute_reason(parseable)
    assert reason_consistency_raw(parseable) == brute_reason_raw(parseable)
    selected, tag_score, reason_score = brute_select(samples)
    result = select_feedback(samples)
    assert result.selected is selected
    assert result.tag_score == tag_score
    assert result.reason_score == reason_score
    assert result.n_parseable == len(parseable)


# ---------------------------------------------------------------------------
# selection


def test_select_single_parseable_sample():
    only = sample([C, I], {1: "thin"})
    result = select_feedback([only])
    assert result.selected is only
    assert result.tag_score == 1.0
    assert result.reason_score == 1.0
    assert result.n_sampled == result.n_parseable == 1


def test_select_discards_unparseable():
    good = sample([C, I], {1: "thin"})
    bad = sample([], parse_ok=False)
    result = select_feedback([bad, good, bad])
    assert result.selected is good
    assert result.n_sampled == 3
    assert result.n_parseable == 1


def test_select_stage2_runs_over_stage1_survivors_only():
    samples = [
        sample([C, I], {1: "alpha beta"}),
        sample([C, I], {1: "alpha gamma"}),
        sample([C, C]),  # loses stage 1 (tag score 1/3)
    ]
    result = select_feedback(samples)
    assert result.tag_score == pytest.approx(2 / 3)
    # survivors are samples 0 and 1; each scores 1/(2*1) = 0.5; tie -> earliest
    assert result.selected is samples[0]
    assert result.reason_score == pytest.approx(0.5)


def test_select_low_confidence_flag():
    samples = [
        sample([I, C], {0: "alpha beta"}),
        sample([I, C], {0: "alpha gamma"}),
    ]
    result = select_feedback(samples)
    assert result.reason_score == pytest.approx(0.5)
    assert result.low_confidence
    confident = select_feedback([sample([I, C], {0: "same words"})] * 3)
    assert not confident.low_confidence


def test_select_determinism():
    rng = random.Random(77)
    for _ in range(50):
        samples = random_sample_set(rng)
        first = select_feedback(samples)
        second = select_feedback(samples)
        assert first.selected is second.selected
        assert first.reason_score == second.reason_score


def test_select_zero_parseable_raises():
    with pytest.raises(ValueError, match="parseable"):
        select_feedback([sample([], parse_ok=False)])


# ---------------------------------------------------------------------------
# run_feedback against the scripted backend


def _scripted_client(tmp_path) -> tuple[GenerationClient, FixtureStore]:
    store = FixtureStore(tmp_path)
    config = BackendConfig(kind="scripted", fixture_dir=str(tmp_path))
    return GenerationClient(config), store


def test_run_feedback_identical_samples(tmp_path):
    client, store = _scripted_client(tmp_path)
    question = "Why are railroads full of rocks?"
    answer = "Ballast spreads the load. Rocks do not wash away."
    output = "1. [Incomplete] Reasons: should mention drainage and erosion.\n2. [Complete]"
    store.record(build_feedback_prompt(question, ["Ballast spreads the load.", "Rocks do not wash away."]), [output] * 20)
    result = run_feedback(question, answer, client, temperature=0.7)
    assert result.tag_score == 1.0
    assert result.reason_score == 1.0
    assert result.n_sampled == 20
    assert result.n_parseable == 20
    assert result.selected.tags == [I, C]
    assert "drainage" in result.selected.reasons[0]
    assert not result.low_confidence


def test_run_feedback_discards_unparseable(tmp_path):
    client, store = _scripted_client(tmp_path)
    question, answer = "Q?", "One sentence only."
    good = "1. [Incomplete] Reasons: lacks any detail."
    store.record(
        build_feedback_prompt(question, [answer]),
        ["garbage"] * 5 + [good] * 15,
    )
    result = run_feedback(question, answer, client, temperature=0.7)
    assert result.n_sampled == 20
    assert result.n_parseable == 15


def test_run_feedback_empty_answer_rejected(tmp_path):
    client, _ = _scripted_client(tmp_path)
    with pytest.raises(ValueError, match="sentences"):
        run_feedback("Q?", "   ", client, temperature=0.7)


def test_run_feedback_three_sentence_structure(tmp_path):
    """First sentence flagged with a drainage/erosion reason, rest clean; the
    reason-consistency score rides along on the result."""
    client, store = _scripted_client(tmp_path)
    question = "Why are railroads full of rocks?"
    answer = (
        "Ballast is a cheap way to level ground. Rocks do not wash away. "
        "They also spread the load."
    )
    sentences = [
        "Ballast is a cheap way to level ground.",
        "Rocks do not wash away.",
        "They also spread the load.",
    ]
    output = (
        "1. [Incomplete] Reasons: useful to mention that ballast also helps "
        "with drainage and prevents erosion.\n2. [Complete]\n3. [Complete]"
    )
    store.record(build_feedback_prompt(question, sentences), [output] * 20)
    result = run_feedback(question, answer, client, temperature=0.7)
    assert result.selected.tags == [I, C, C]
    assert "drainage" in result.selected.reasons[0]
    assert "erosion" in result.selected.reasons[0]
    assert 0.0 <= result.reason_score <= 1.0
    assert result.reason_score == 1.0  # identical samples agree perfectly


_TWO_SENTENCE_QA = ("Why are railroads full of rocks?", "Ballast spreads the load. Rocks drain.")
_REPEATED_OUTPUTS = [
    "1. [Incomplete] Reasons: should mention drainage.\n2. [Complete]",
    "garbage",
    "1. [Incomplete] Reasons: should mention erosion and drainage.\n2. [Complete]",
    "1. [Incomplete] Reasons: should mention drainage.\n2. [Complete]",
    "1. [Complete]\n2. [Complete]",
] * 4


def _record_repeated_outputs(store):
    question, answer = _TWO_SENTENCE_QA
    sentences = ["Ballast spreads the load.", "Rocks drain."]
    store.record(build_feedback_prompt(question, sentences), _REPEATED_OUTPUTS)
    return len(sentences)


def test_run_feedback_parses_each_distinct_text_once(tmp_path, monkeypatch):
    client, store = _scripted_client(tmp_path)
    n_sentences = _record_repeated_outputs(store)
    parsed = []

    def counting(text, expected_n):
        parsed.append(text)
        return parse_feedback_output(text, expected_n)

    monkeypatch.setattr(feedback_module, "parse_feedback_output", counting)
    result = run_feedback(*_TWO_SENTENCE_QA, client, temperature=0.7)
    assert sorted(parsed) == sorted(set(_REPEATED_OUTPUTS))
    separately = select_feedback(
        [parse_feedback_output(t, n_sentences) for t in _REPEATED_OUTPUTS]
    )
    assert result.to_dict(audit=True) == separately.to_dict(audit=True)


def test_shared_samples_stay_as_parsed_through_eir(tmp_path):
    """Equal outputs share one FeedbackSample, so nothing downstream may mutate one."""
    client, store = _scripted_client(tmp_path)
    n_sentences = _record_repeated_outputs(store)
    question, answer = _TWO_SENTENCE_QA
    reasons = ["should mention drainage."]
    store.record(
        build_refine_prompt(RefineMode.ERROR_INFORMED, question, answer, reasons),
        ["Ballast spreads the load and drains water. Rocks drain."],
    )
    feedback = run_feedback(question, answer, client, temperature=0.7)
    record = run_eir(question, answer, feedback, client)
    assert not record.passthrough
    record.to_dict(audit=True)
    samples = record.feedback.samples
    assert samples[0] is samples[3]  # equal texts share one parsed sample
    assert samples == [parse_feedback_output(t, n_sentences) for t in _REPEATED_OUTPUTS]


def test_result_audit_serialization_includes_all_raw_samples():
    good = sample([C, I], {1: "thin"})._replace(raw="1. [Complete]\n2. [Incomplete] Reasons: thin")
    bad = sample([], parse_ok=False)._replace(raw="garbage")
    result = select_feedback([good, bad])
    plain = result.to_dict()
    assert "samples_raw" not in plain and "selected_raw" not in plain
    audited = result.to_dict(audit=True)
    assert audited["selected_raw"] == good.raw
    assert audited["samples_raw"] == [good.raw, "garbage"]
