import pytest

from lfqa_eval.feedback import build_feedback_prompt, run_feedback
from lfqa_eval.genclient import (
    BackendConfig,
    FixtureError,
    FixtureStore,
    GenerationClient,
    GenerationError,
)
from lfqa_eval.refine import (
    RefineMode,
    build_refine_prompt,
    refine_answer,
    refine_max_tokens,
    run_eir,
)


class CountingClient:
    """Delegating client that counts generate() calls."""

    def __init__(self, inner: GenerationClient):
        self.inner = inner
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


def scripted(tmp_path, sub="fx") -> tuple[GenerationClient, FixtureStore]:
    root = tmp_path / sub
    config = BackendConfig(kind="scripted", fixture_dir=str(root))
    return GenerationClient(config), FixtureStore(root)


# ---------------------------------------------------------------------------
# prompt templates


def test_improve_prompt_exact():
    assert build_refine_prompt(RefineMode.IMPROVE, "Why?", "Because.") == (
        '\nAnswer the following question: "Why?"\n'
        'Your answer is: "Because.".\n'
        "Please improve your answer.\n"
        "Your improved answer:\n\n"
    )


def test_generic_prompt_exact():
    assert build_refine_prompt(RefineMode.GENERIC, "Why?", "Because.") == (
        '\nAnswer the following question: "Why?"\n'
        'Your answer is: "Because.".\n'
        "The answer is not complete.\n"
        "Please improve your answer.\n"
        "Your improved answer:\n\n"
    )


def test_error_informed_prompt_exact():
    prompt = build_refine_prompt(
        RefineMode.ERROR_INFORMED,
        "Why?",
        "Because.",
        ["misses drainage", "misses erosion"],
    )
    assert prompt == (
        '\nAnswer the following question: "Why?"\n'
        'Your answer is: "Because.".\n'
        "The answer is not complete because: \n"
        '"1. misses drainage\n2. misses erosion".\n'
        "Please improve your answer.\n"
        "Your improved answer:\n\n"
    )


def test_improve_never_mentions_completeness():
    prompt = build_refine_prompt(RefineMode.IMPROVE, "Why is it so?", "It just is.")
    assert "not complete" not in prompt
    assert "not complete" in build_refine_prompt(RefineMode.GENERIC, "q", "a")
    assert "not complete" in build_refine_prompt(
        RefineMode.ERROR_INFORMED, "q", "a", ["r"]
    )


def test_error_informed_requires_reasons():
    with pytest.raises(ValueError):
        build_refine_prompt(RefineMode.ERROR_INFORMED, "q", "a", [])
    with pytest.raises(ValueError):
        build_refine_prompt(RefineMode.ERROR_INFORMED, "q", "a", None)


def test_refine_max_tokens_is_1_5x_word_count():
    assert refine_max_tokens("one two three four") == 6
    assert refine_max_tokens("word") == 2  # ceil(1.5)
    assert refine_max_tokens("") == 1


# ---------------------------------------------------------------------------
# refine_answer


def test_refine_answer_playback(tmp_path):
    client, store = scripted(tmp_path)
    prompt = build_refine_prompt(RefineMode.IMPROVE, "Why?", "Because.")
    store.record(prompt, ["better answer"])
    record = refine_answer("Why?", "Because.", RefineMode.IMPROVE, None, client)
    assert record.refined_answer == "better answer"
    assert record.mode is RefineMode.IMPROVE
    assert not record.passthrough


def test_refine_answer_strips_whitespace(tmp_path):
    client, store = scripted(tmp_path)
    prompt = build_refine_prompt(RefineMode.GENERIC, "Why?", "Because.")
    store.record(prompt, ["  padded reply \n"])
    record = refine_answer("Why?", "Because.", RefineMode.GENERIC, None, client)
    assert record.refined_answer == "padded reply"


def test_refine_answer_empty_generation_rejected(tmp_path):
    client, store = scripted(tmp_path)
    prompt = build_refine_prompt(RefineMode.IMPROVE, "Why?", "Because.")
    store.record(prompt, ["   "])
    with pytest.raises(GenerationError, match="empty refinement"):
        refine_answer("Why?", "Because.", RefineMode.IMPROVE, None, client)


def test_max_tokens_zero_is_refused_not_replaced_by_the_default(tmp_path):
    client, _ = scripted(tmp_path)
    counting = CountingClient(client)
    with pytest.raises(ValueError, match="max_tokens must be >= 1"):
        refine_answer("Why?", "Because.", RefineMode.IMPROVE, None, counting, max_tokens=0)
    with pytest.raises(ValueError, match="max_tokens must be >= 1"):
        run_feedback("Why?", "Because.", counting, 2, temperature=0.0, max_tokens=0)
    assert counting.calls == 0


def test_refine_answer_deterministic(tmp_path):
    client, store = scripted(tmp_path)
    prompt = build_refine_prompt(RefineMode.IMPROVE, "Why?", "Because.")
    store.record(prompt, ["stable"])
    first = refine_answer("Why?", "Because.", RefineMode.IMPROVE, None, client)
    second = refine_answer("Why?", "Because.", RefineMode.IMPROVE, None, client)
    assert first == second


# ---------------------------------------------------------------------------
# run_eir


QUESTION = "Why are railroads full of rocks?"
ANSWER = "Ballast spreads the load. Rocks do not wash away."
SENTENCES = ["Ballast spreads the load.", "Rocks do not wash away."]


def test_run_eir_passthrough_on_all_complete(tmp_path):
    feedback_client, store = scripted(tmp_path, "fb")
    refine_client = CountingClient(scripted(tmp_path, "rf")[0])
    store.record(
        build_feedback_prompt(QUESTION, SENTENCES),
        ["1. [Complete]\n2. [Complete]"] * 20,
    )
    feedback = run_feedback(QUESTION, ANSWER, feedback_client, temperature=0.7)
    record = run_eir(QUESTION, ANSWER, feedback, refine_client)
    assert record.passthrough
    assert record.refined_answer == ANSWER
    assert refine_client.calls == 0
    assert record.feedback is not None
    assert record.feedback.selected.incomplete_indices() == []


def test_run_eir_refines_with_numbered_reasons(tmp_path):
    feedback_client, fb_store = scripted(tmp_path, "fb")
    inner, rf_store = scripted(tmp_path, "rf")
    refine_client = CountingClient(inner)
    fb_store.record(
        build_feedback_prompt(QUESTION, SENTENCES),
        ["1. [Incomplete] Reasons: missing drainage\n2. [Complete]"] * 20,
    )
    expected_prompt = build_refine_prompt(
        RefineMode.ERROR_INFORMED, QUESTION, ANSWER, ["missing drainage"]
    )
    assert "1. missing drainage" in expected_prompt
    rf_store.record(expected_prompt, ["Ballast also improves drainage."])
    feedback = run_feedback(QUESTION, ANSWER, feedback_client, temperature=0.7)
    record = run_eir(QUESTION, ANSWER, feedback, refine_client)
    assert not record.passthrough
    assert refine_client.calls == 1
    assert record.refined_answer == "Ballast also improves drainage."
    assert record.mode is RefineMode.ERROR_INFORMED


def test_run_eir_reason_order_follows_sentence_order(tmp_path):
    question = "How does a refrigerator stay cold?"
    answer = "A refrigerant absorbs heat. A compressor squeezes it. Coils dump the heat."
    sentences = [
        "A refrigerant absorbs heat.",
        "A compressor squeezes it.",
        "Coils dump the heat.",
    ]
    feedback_client, fb_store = scripted(tmp_path, "fb")
    inner, rf_store = scripted(tmp_path, "rf")
    fb_store.record(
        build_feedback_prompt(question, sentences),
        [
            "1. [Incomplete] Reasons: which refrigerant\n"
            "2. [Complete]\n"
            "3. [Incomplete] Reasons: where the heat goes"
        ]
        * 20,
    )
    prompt = build_refine_prompt(
        RefineMode.ERROR_INFORMED,
        question,
        answer,
        ["which refrigerant", "where the heat goes"],
    )
    assert '"1. which refrigerant\n2. where the heat goes".' in prompt
    rf_store.record(prompt, ["Expanded answer."])
    feedback = run_feedback(question, answer, feedback_client, temperature=0.7)
    record = run_eir(question, answer, feedback, inner)
    assert record.refined_answer == "Expanded answer."


def test_run_eir_structure_of_result(tmp_path):
    """Feedback tagging one sentence incomplete yields a refined answer that
    the refine fixture ties to the drainage/erosion reasons."""
    feedback_client, fb_store = scripted(tmp_path, "fb")
    inner, rf_store = scripted(tmp_path, "rf")
    reason = "should mention that ballast helps drainage and prevents erosion"
    fb_store.record(
        build_feedback_prompt(QUESTION, SENTENCES),
        [f"1. [Incomplete] Reasons: {reason}\n2. [Complete]"] * 20,
    )
    rf_store.record(
        build_refine_prompt(RefineMode.ERROR_INFORMED, QUESTION, ANSWER, [reason]),
        ["Ballast levels the ground, improves drainage, and prevents erosion."],
    )
    feedback = run_feedback(QUESTION, ANSWER, feedback_client, temperature=0.7)
    record = run_eir(QUESTION, ANSWER, feedback, inner)
    assert "drainage" in record.refined_answer
    assert "erosion" in record.refined_answer
    assert record.feedback.reason_score == 1.0


def test_run_eir_propagates_missing_refine_fixture(tmp_path):
    feedback_client, fb_store = scripted(tmp_path, "fb")
    inner, _ = scripted(tmp_path, "rf")
    fb_store.record(
        build_feedback_prompt(QUESTION, SENTENCES),
        ["1. [Incomplete] Reasons: thin\n2. [Complete]"] * 20,
    )
    feedback = run_feedback(QUESTION, ANSWER, feedback_client, temperature=0.7)
    with pytest.raises(FixtureError):
        run_eir(QUESTION, ANSWER, feedback, inner)
