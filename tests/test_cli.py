import contextlib
import gc
import io
import json
import re
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import child_env, make_record, quiet_main, run_python
from lfqa_eval import cli as cli_module
from lfqa_eval import corpus as corpus_module
from lfqa_eval import genclient as genclient_module
from lfqa_eval import scoring as scoring_module
from lfqa_eval.cli import ConfigError, RoleConfig, load_config, main, parse_config_text
from lfqa_eval.corpus import classify_granularity, load_corpus, save_corpus
from lfqa_eval.evalmetrics import completeness_gold, detection_eval
from lfqa_eval.feedback import build_feedback_prompt
from lfqa_eval.genclient import FixtureStore, GenerationClient
from lfqa_eval.models import (
    Answer,
    Aspect,
    Domain,
    ErrorAnnotation,
    PreferenceJudgment,
    Source,
    SpanGranularity,
)
from lfqa_eval.refine import RefineMode, build_refine_prompt
from lfqa_eval.scoring import domain_report, score_record
from lfqa_eval.segment import segment_sentences, sentence_texts


@pytest.fixture
def small_corpus(tmp_path) -> Path:
    records = [
        make_record(
            record_id="q1",
            domain=Domain.LAW,
            annotations=[
                ErrorAnnotation(Aspect.COMPLETENESS, 0, (0, 28), "misses scope", "a1"),
                ErrorAnnotation(Aspect.QUESTION_MISCONCEPTION, None, (0, 4), "assumes", "a1"),
            ],
            preferences=[
                PreferenceJudgment("a1", 1, ""),
                PreferenceJudgment("a2", 1, ""),
                PreferenceJudgment("a3", 0, ""),
            ],
        ),
        make_record(
            record_id="q2",
            domain=Domain.PHYSICS,
            preferences=[PreferenceJudgment("a1", 0, ""), PreferenceJudgment("a2", 0, "")],
        ),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(records, path)
    return path


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    config = load_config(None, {})
    assert config.n_samples == 20
    assert config.workers is None
    assert config.roles == {}


def test_config_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("n_samples = 5\n", encoding="utf-8")
    assert load_config(str(path), {}).n_samples == 5
    assert load_config(str(path), {"n_samples": 3}).n_samples == 3


def test_config_unknown_key(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("foo = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="foo"):
        load_config(str(path), {})


def test_config_type_mismatch(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("n_samples = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="n_samples"):
        load_config(str(path), {})


def test_config_backend_section(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "feedback.kind = http\n"
        "feedback.endpoint_url = http://localhost:9/v1\n"
        "feedback.model_name = local\n"
        "feedback.temperature = 0.7\n"
        "# comment\n"
        "n_samples = 4\n",
        encoding="utf-8",
    )
    config = load_config(str(path), {})
    assert config.roles["feedback"].backend.kind == "http"
    assert config.roles["feedback"].temperature == 0.7
    assert config.n_samples == 4


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("n_samples = 5\n# comment\nn_samples = 6\n",
         "config line 3: duplicate key 'n_samples' (first seen on line 1)"),
        ("feedback.kind=scripted\n\n  feedback.kind = http\n",
         "config line 3: duplicate key 'feedback.kind' (first seen on line 1)"),
    ],
    ids=["same-value-line", "spacing-differs"],
)
def test_config_key_set_twice_is_refused(text, message, tmp_path):
    path = tmp_path / "cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as refused:
        load_config(str(path), {})
    assert str(refused.value) == message


def test_config_line_not_utf8_is_named(small_corpus, tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_bytes(b"n_samples = 5\nfeedback.kind = scripted # caf\xc3\n")
    out = tmp_path / "out.jsonl"
    assert main(["feedback", str(small_corpus), "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: config line 2: not UTF-8\n")
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_config_value_holding_a_unicode_line_break_reads_whole(newline, tmp_path):
    breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines splits at each
    lines = ["n_samples = 5", f"feedback.model_name = a{breaks}b", "feedback.kind = http"]
    assert parse_config_text(newline.join(lines)) == {
        "n_samples": "5", "feedback.model_name": f"a{breaks}b", "feedback.kind": "http",
    }
    path = tmp_path / "cfg"
    path.write_bytes(newline.join([*lines[:2], "not a setting", ""]).encode("utf-8"))
    with pytest.raises(ConfigError, match="^config line 3: expected 'key = value'$"):
        load_config(str(path), {})


def test_config_http_backend_needs_fields(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("refine.kind = http\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="refine"):
        load_config(str(path), {})


@pytest.mark.parametrize(
    ("config_text", "backend", "message"),
    [
        ("feedback.model_name = m\n", None,
         "backend 'feedback' is configured but has no 'feedback.kind'"),
        ("", "scripted:", "--backend scripted: needs a directory"),
        ("feedback.kind = scripted\nfeedback.native_n = maybe\n", None,
         "config key 'feedback.native_n' expects bool, got 'maybe'"),
    ],
    ids=["role-without-kind", "scripted-without-directory", "native-n-not-a-bool"],
)
def test_config_mistake_exits_1_before_any_work(
    config_text, backend, message, small_corpus, tmp_path, capsys
):
    config = tmp_path / "cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "fb.jsonl"
    argv = ["feedback", str(small_corpus), "--config", str(config), "--out", str(out)]
    assert main(argv + (["--backend", backend] if backend else [])) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_samples", "workers"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_counts_below_one_are_refused(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be at least 1, got {value}"):
        load_config(None, {key: value})


@pytest.mark.parametrize("role", ["feedback", "refine"])
@pytest.mark.parametrize(
    ("setting", "value", "message"),
    [
        ("temperature", "-1", "must be a finite number >= 0, got -1.0"),
        ("temperature", "nan", "must be a finite number >= 0, got nan"),
        ("temperature", "inf", "must be a finite number >= 0, got inf"),
        ("max_tokens", "0", "must be at least 1, got 0"),
        ("max_tokens", "-5", "must be at least 1, got -5"),
    ],
)
def test_config_role_sampling_settings_out_of_range_are_refused(role, setting, value, message):
    key = f"{role}.{setting}"
    with pytest.raises(ConfigError, match=f"^{key} {message}$"):
        load_config(None, {key: value})


@pytest.mark.parametrize(
    "key", ["consistency_threshold", "weight_exact", "weight_adjacent", "weight_different"]
)
@pytest.mark.parametrize(("value", "shown"), [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_config_detection_weights_out_of_range_are_refused(key, value, shown):
    # The weights and the low-confidence cutoff are constants: each key is unknown,
    # refused before its value (once shown as "got {shown}") is read.
    with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
        load_config(None, {key: value})


def test_config_role_sampling_settings_in_range_load():
    config = load_config(None, {"feedback.temperature": "0", "refine.max_tokens": "1"})
    assert config.roles == {
        "feedback": RoleConfig(temperature=0.0), "refine": RoleConfig(max_tokens=1)
    }


@pytest.mark.parametrize(("flag", "key"), [("--n-samples", "n_samples"), ("--workers", "workers")])
def test_batch_count_below_one_exits_1_before_reading_anything(
    flag, key, golden_env, tmp_path, monkeypatch, capsys
):
    def no_corpus(path):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli_module, "load_corpus", no_corpus)
    out = tmp_path / "fb.jsonl"
    out.write_text("previous\n", encoding="utf-8")
    assert _run_feedback_cli(golden_env, out, (flag, "0", "--resume")) == 1
    assert f"{key} must be at least 1, got 0" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert not Path(f"{out}.partial").exists()


@pytest.mark.parametrize("setting", ["feedback.temperature = -1", "feedback.max_tokens = 0"])
def test_bad_role_sampling_setting_exits_1_before_reading_anything(
    setting, golden_env, tmp_path, monkeypatch, capsys
):
    def no_corpus(path):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli_module, "load_corpus", no_corpus)
    config = tmp_path / "cfg"
    config.write_text(setting + "\n", encoding="utf-8")
    out = tmp_path / "fb.jsonl"
    out.write_bytes(b"previous\n")
    assert _run_feedback_cli(golden_env, out, ("--config", str(config))) == 1
    assert setting.split(" = ")[0] in capsys.readouterr().err
    assert out.read_bytes() == b"previous\n"
    assert not Path(f"{out}.partial").exists()


@pytest.mark.parametrize("flags", [("--config", "cfg"), ("--invert",)], ids=["config", "invert"])
def test_eval_detect_has_no_config_or_invert_flag(flags, tmp_path, capsys):
    argv = ["eval-detect", str(tmp_path / "corpus.jsonl"),
            "--predictions", str(tmp_path / "predictions.jsonl"), *flags]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_scorer_config_keys_are_unknown(small_corpus, tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("scorer.kind = http\n", encoding="utf-8")
    code = main(
        ["feedback", str(small_corpus), "--config", str(config),
         "--out", str(tmp_path / "x.jsonl")]
    )
    assert code == 1
    assert "unknown config key 'scorer.kind'" in capsys.readouterr().err


def test_readme_config_block_matches_load_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Configuration\n", 1)[1].split("```", 2)[1]
    # every `key = value` line, commented or not; refine.* takes the feedback.* keys
    documented = {
        key.replace("refine.", "feedback.", 1)
        for key in re.findall(r"^#?\s*([\w.]+)\s*=", block, re.MULTILINE)
    }
    accepted = {*cli_module._SCALAR_KEYS, *(f"feedback.{key}" for key in cli_module._BACKEND_KEYS)}
    assert documented - accepted == set(), "README documents keys load_config refuses"
    assert accepted - documented == set(), "README omits keys load_config accepts"


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Configuration\n", 1)[1].split("```", 2)[1]
    path = tmp_path / "cfg"
    path.write_text(block, encoding="utf-8")
    config = load_config(str(path), {})
    assert config.n_samples == 20  # the line ends "20   # feedback samples per answer"
    assert config.roles["feedback"].backend.auth_env == "FEEDBACK_API_KEY"
    assert config.roles["refine"].temperature == 0.1


@pytest.mark.parametrize(
    ("line", "value"),
    [
        ("auth_env = KEY   # trailing comment", "KEY"),
        ("auth_env = KEY\t# tab before the '#'", "KEY"),
        ("url = http://host/path#frag", "http://host/path#frag"),
        ("url = http://host/path#frag # note", "http://host/path#frag"),
        ("  # indented comment line", None),
    ],
    ids=["spaces", "tab", "fragment", "fragment-then-comment", "comment-line"],
)
def test_config_comment_starts_at_a_hash_after_whitespace(line, value):
    parsed = cli_module.parse_config_text(line + "\n")
    assert parsed == ({} if value is None else {line.split(" = ")[0]: value})


# ---------------------------------------------------------------------------
# validate / stats / score / agreement


def test_validate_ok(small_corpus, capsys):
    assert main(["validate", str(small_corpus)]) == 0
    assert "2 records OK" in capsys.readouterr().out


def test_validate_reports_all_violations(tmp_path, capsys):
    bad = [
        {"id": "a", "domain": "law", "question": "q",
         "answers": [{"source": "human", "text": "Short answer."}],
         "annotations": [], "preferences": [{"annotator": "x", "choice": 7, "justification": ""}]},
        {"id": "a", "domain": "law", "question": "q",
         "answers": [{"source": "human", "text": "Short answer."}],
         "annotations": [], "preferences": []},
    ]
    path = tmp_path / "bad.jsonl"
    text = "\n".join(json.dumps(o) for o in bad) + '\nnot json\n{"id": "caf\udcc3"}\n'
    path.write_text(text, encoding="utf-8", errors="surrogateescape")  # line 4 holds the byte 0xc3
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "choice 7" in err
    assert "duplicate id 'a'" in err
    assert "line 3" in err
    assert "line 4: not UTF-8\n" in err
    assert out == "4 records checked, 4 violations\n"


def test_validate_names_an_empty_id_and_an_annotation_that_misses_its_target(tmp_path, capsys):
    def record(record_id, *annotations):
        return {"id": record_id, "domain": "law", "question": "Why?",
                "answers": [{"source": "human", "text": "One. Two."}],
                "annotations": list(annotations), "preferences": []}

    path = tmp_path / "bad.jsonl"
    lines = [
        record(""),
        record("b", {"aspect": "completeness", "target": {"answer": 3},
                     "span": {"start": 0, "end": 2}}),
        record("c", {"aspect": "question_misconception", "target": "question",
                     "span": {"whole_answer": True}}),
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == (
        "3 records checked, 3 violations\n",
        "line 1: record '': id is empty\n"
        "line 2: record 'b': annotations[0] (completeness): answer index 3 out of range\n"
        "line 3: record 'c': annotations[0] (question_misconception): "
        "whole_answer cannot target the question\n",
    )


def test_stats_outputs_table_and_jsonl(small_corpus, tmp_path, capsys):
    out = tmp_path / "stats.jsonl"
    assert main(["stats", str(small_corpus), "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "completeness" in table
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    span_rows = [r for r in rows if r["kind"] == "span_granularity"]
    assert {r["aspect"] for r in span_rows} >= {"completeness", "average"}
    comp = next(r for r in span_rows if r["aspect"] == "completeness")
    assert comp["sentence"] == 100.0  # the q1 annotation covers sentence 1 exactly
    assert any(r["kind"] == "answer_length" for r in rows)


def test_stats_length_buckets_in_word_order(tmp_path, capsys):
    # bucket labels in word order, which is not their string order
    answers = [Answer(Source.MODEL, " ".join(["word"] * n) + ".") for n in (600, 120, 60, 10, 10)]
    path = tmp_path / "corpus.jsonl"
    save_corpus([make_record(record_id="len", answers=answers)], path)
    out = tmp_path / "stats.jsonl"
    assert main(["stats", str(path), "--out", str(out)]) == 0
    table = capsys.readouterr().out.split("Answer words")[1].splitlines()[1:]
    expected = [("0-49", 2), ("50-99", 1), ("100-149", 1), ("500+", 1)]
    assert [tuple(line.split()) for line in table] == [(b, str(n)) for b, n in expected]
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    lengths = [(r["bucket"], r["count"]) for r in rows if r["kind"] == "answer_length"]
    assert lengths == expected


def test_score_emits_scorecards_and_report(small_corpus, tmp_path, capsys):
    out = tmp_path / "cards.jsonl"
    report = tmp_path / "report.jsonl"
    assert main(["score", str(small_corpus), "--out", str(out), "--report", str(report)]) == 0
    stdout = capsys.readouterr().out
    assert "Category" in stdout and "law" in stdout
    cards = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(cards) == 4  # two records x two answers
    q1_human = next(c for c in cards if c["record_id"] == "q1" and c["source"] == "human")
    assert q1_human["scores"]["completeness"] == 0.5
    assert q1_human["preference_score"] == 0.0
    rows = [json.loads(l) for l in report.read_text(encoding="utf-8").splitlines()]
    assert rows[-1]["domain"] == "average"
    law = next(r for r in rows if r["domain"] == "law")
    assert law["model_pref_pct"] == 100.0


def test_agreement_outputs_alpha(small_corpus, tmp_path, capsys):
    out = tmp_path / "agreement.jsonl"
    assert main(["agreement", str(small_corpus), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    law = next(r for r in rows if r["domain"] == "law")
    physics = next(r for r in rows if r["domain"] == "physics")
    assert physics["alpha"] == 1.0
    assert law["alpha"] is not None


def _count_segmented(monkeypatch) -> list[str]:
    """Record every text segmented through the corpus and cli module bindings."""
    texts: list[str] = []

    def counting(text):
        texts.append(text)
        return segment_sentences(text)

    monkeypatch.setattr(corpus_module, "segment_sentences", counting)
    monkeypatch.setattr(cli_module, "segment_sentences", counting)
    return texts


def _corpus_path(request, name: str) -> Path:
    if name == "golden":
        return request.getfixturevalue("golden_env")["corpus"]
    return request.getfixturevalue("small_corpus")


@pytest.mark.parametrize("name", ["small", "golden"])
def test_score_segments_each_answer_once(name, request, tmp_path, monkeypatch):
    path = _corpus_path(request, name)
    segmented = _count_segmented(monkeypatch)
    assert main(["score", str(path), "--out", str(tmp_path / "cards.jsonl")]) == 0
    answers = [a.text for record in load_corpus(path) for a in record.answers]
    assert sorted(segmented) == sorted(answers)


@pytest.mark.parametrize("name", ["small", "golden"])
def test_stats_segments_each_annotated_text_once(name, request, tmp_path, monkeypatch):
    path = _corpus_path(request, name)
    segmented = _count_segmented(monkeypatch)
    out = tmp_path / "stats.jsonl"
    assert main(["stats", str(path), "--out", str(out)]) == 0
    records = load_corpus(path)
    targets = {
        (record.id, ann.answer_index): (
            record.question if ann.answer_index is None else record.answers[ann.answer_index].text
        )
        for record in records
        for ann in record.annotations
    }
    assert sorted(segmented) == sorted(targets.values())
    # each annotation classified against a segmentation of its own text
    counts: dict[str, Counter] = defaultdict(Counter)
    for record in records:
        for ann in record.annotations:
            text = targets[record.id, ann.answer_index]
            start, end = ann.span if ann.span is not None else (0, len(text))
            counts[ann.aspect.value][
                classify_granularity(start, end, segment_sentences(text), text).value
            ] += 1
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    span_rows = {r["aspect"]: r for r in rows if r["kind"] == "span_granularity"}
    span_rows.pop("average", None)
    assert span_rows.keys() == counts.keys()
    for aspect, counter in counts.items():
        total = sum(counter.values())
        assert span_rows[aspect]["n_spans"] == total
        for g in SpanGranularity:
            assert span_rows[aspect][g.value] == 100.0 * counter[g.value] / total


def test_stats_segments_a_text_annotated_twice_once(tmp_path, monkeypatch):
    answer = "One sentence here. Another one here."
    record = make_record(
        answers=[Answer(Source.HUMAN, answer), Answer(Source.MODEL, "Never annotated.")],
        annotations=[
            ErrorAnnotation(Aspect.COMPLETENESS, 0, (0, 18), "a", "a1"),
            ErrorAnnotation(Aspect.FACTUALITY, 0, (19, 36), "b", "a1"),
            ErrorAnnotation(Aspect.RELEVANCE, 0, None, "c", "a2"),
        ],
    )
    path = tmp_path / "corpus.jsonl"
    save_corpus([record], path)
    segmented = _count_segmented(monkeypatch)
    assert main(["stats", str(path), "--out", str(tmp_path / "stats.jsonl")]) == 0
    assert segmented == [answer]


@pytest.mark.parametrize("name", ["small", "golden"])
def test_score_out_equals_score_record_in_corpus_order(name, request, tmp_path):
    path = _corpus_path(request, name)
    out = tmp_path / "cards.jsonl"
    assert main(["score", str(path), "--out", str(out)]) == 0
    expected = [card.to_dict() for r in load_corpus(path) for card in score_record(r)]
    assert [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()] == expected


@pytest.mark.parametrize("name", ["small", "golden"])
def test_agreement_segments_and_scores_nothing(name, request, tmp_path, monkeypatch):
    path = _corpus_path(request, name)
    segmented = _count_segmented(monkeypatch)
    scored = []
    monkeypatch.setattr(scoring_module, "score_record", lambda r: scored.append(r) or [])
    out = tmp_path / "agreement.jsonl"
    assert main(["agreement", str(path), "--out", str(out)]) == 0
    assert segmented == [] and scored == []
    monkeypatch.undo()
    report = domain_report(load_corpus(path))
    expected = [
        {"domain": row.domain, "n_records": row.n_records, "alpha": row.alpha}
        for row in report.rows + [report.average]
    ]
    assert [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()] == expected


# ---------------------------------------------------------------------------
# feedback / refine with the scripted golden environment


def _run_feedback_cli(golden_env, out: Path, extra=()) -> int:
    return main(
        [
            "feedback",
            str(golden_env["corpus"]),
            "--backend",
            f"scripted:{golden_env['fixtures']}",
            "--out",
            str(out),
            *extra,
        ]
    )


def test_feedback_cli_over_golden_corpus(golden_env, tmp_path):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 10
    by_id = {l["record_id"]: l for l in lines}
    assert by_id["g00"]["selected"]["tags"] == ["Complete", "Complete"]
    assert by_id["g01"]["low_confidence"] is True
    assert by_id["g01"]["reason_score"] < 0.80
    assert by_id["g02"]["n_parseable"] == 15
    assert all(l["n_sampled"] == 20 for l in lines)


def test_feedback_cli_deterministic_output(golden_env, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _run_feedback_cli(golden_env, first) == 0
    assert _run_feedback_cli(golden_env, second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_feedback_cli_resume_skips_done_records(golden_env, tmp_path):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    full = out.read_text(encoding="utf-8")
    lines = full.splitlines()
    out.write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 0
    assert out.read_text(encoding="utf-8") == full


def test_feedback_cli_resume_recomputes_a_torn_last_line(golden_env, tmp_path, capsys):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    clean = out.read_bytes()
    lines = clean.decode("utf-8").splitlines()
    torn = lines[-1][: len(lines[-1]) // 2]
    kept = ("\n".join(lines[:-1]) + "\n").encode("utf-8")
    # cut between characters, and inside the two bytes of a non-ASCII one
    for cut in (torn.encode("utf-8"), (torn + "\u00e9").encode("utf-8")[:-1]):
        out.write_bytes(kept + cut)
        capsys.readouterr()
        assert _run_feedback_cli(golden_env, out, ("--resume",)) == 0
        assert out.read_bytes() == clean
        assert f"line {len(lines)}: torn last line" in capsys.readouterr().err


def test_feedback_cli_resume_line_not_utf8_exits_1(golden_env, tmp_path, capsys):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:20] + "\u00e9".encode("utf-8")[:1] + b"\n"  # cut inside a character
    broken = b"".join(lines)
    out.write_bytes(broken)
    capsys.readouterr()
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 1
    assert capsys.readouterr().err == f"error: {out}: line 4: not UTF-8\n"
    assert out.read_bytes() == broken


def _cut(line: str) -> str:
    return line[: len(line) // 2]


@pytest.mark.parametrize(
    "index, replace, message",
    [
        (3, _cut, "line 4: malformed JSON"),
        (9, _cut, "line 10: malformed JSON"),  # cut, but its newline was written
        (1, lambda line: "[1, 2]", "line 2: expected a JSON object"),
        (
            2,
            lambda line: json.dumps({**json.loads(line), "answer_index": "x"}),
            "line 3: record 'g02': answer_index 'x' is not an integer",
        ),
        (
            2,
            lambda line: json.dumps({**json.loads(line), "answer_index": 1.5}),
            "line 3: record 'g02': answer_index 1.5 is not an integer",
        ),
        (
            2,
            lambda line: json.dumps({**json.loads(line), "answer_index": True}),
            "line 3: record 'g02': answer_index True is not an integer",
        ),
        (
            2,
            lambda line: json.dumps({**json.loads(line), "answer_index": -1}),
            "line 3: record 'g02': answer_index -1 is not an integer >= 0",
        ),
        (
            2,
            lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "record_id"}),
            "line 3: line has no record_id",
        ),
        (
            2,
            lambda line: json.dumps({**json.loads(line), "record_id": None}),
            "line 3: line has no record_id",
        ),
        (
            2,
            lambda line: json.dumps({**json.loads(line), "record_id": 2}),
            "line 3: record_id 2 is not a non-empty string",
        ),
    ],
    ids=[
        "middle-line-cut",
        "last-line-cut-with-newline",
        "not-an-object",
        "bad-answer-index",
        "fractional-answer-index",
        "bool-answer-index",
        "negative-answer-index",
        "no-record-id",
        "null-record-id",
        "numeric-record-id",
    ],
)
def test_feedback_cli_resume_malformed_line_exits_1(
    index, replace, message, golden_env, tmp_path, capsys
):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[index] = replace(lines[index])
    broken = "\n".join(lines) + "\n"
    out.write_text(broken, encoding="utf-8")
    capsys.readouterr()
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 1
    assert message in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == broken


@pytest.mark.parametrize("command", [["feedback"], ["refine", "--mode", "eir"]])
def test_answer_index_out_of_range_exits_2(command, golden_env, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    code = main(
        [*command, str(golden_env["corpus"]),
         "--backend", f"scripted:{golden_env['fixtures']}",
         "--answer", "7", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--answer 7" in err and "largest answer index is 0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["feedback"], ["refine", "--mode", "eir"]])
@pytest.mark.parametrize(
    ("selector", "message"),
    [
        ("foo", "--answer must be all, human, model, or an index, got 'foo'"),
        ("human", "--answer human selects no answer"),  # golden answers are all model
    ],
    ids=["unknown", "no-match"],
)
def test_answer_selector_usage_errors_exit_2(
    command, selector, message, golden_env, tmp_path, capsys
):
    out = tmp_path / "out.jsonl"
    code = main(
        [*command, str(golden_env["corpus"]),
         "--backend", f"scripted:{golden_env['fixtures']}",
         "--answer", selector, "--out", str(out)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "n_clients"), [(["feedback"], 1), (["refine", "--mode", "eir"], 2)]
)
@pytest.mark.parametrize(("selector", "code"), [("all", 0), ("7", 2)], ids=["ok", "usage-error"])
def test_batch_commands_close_every_client(
    command, n_clients, selector, code, golden_env, tmp_path, monkeypatch
):
    made, closed = [], []
    real_client_for = cli_module._client_for
    real_close = GenerationClient.close

    def recording_client_for(config, role):
        made.append(real_client_for(config, role))
        return made[-1]

    def recording_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(cli_module, "_client_for", recording_client_for)
    monkeypatch.setattr(GenerationClient, "close", recording_close)
    argv = [*command, str(golden_env["corpus"]),
            "--backend", f"scripted:{golden_env['fixtures']}",
            "--answer", selector, "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == code
    assert len(made) == n_clients
    assert sorted(map(id, closed)) == sorted(map(id, made))  # each closed once


def test_refine_eir_cli(golden_env, tmp_path):
    out = tmp_path / "refine.jsonl"
    code = main(
        [
            "refine",
            str(golden_env["corpus"]),
            "--mode",
            "eir",
            "--backend",
            f"scripted:{golden_env['fixtures']}",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    by_id = {l["record_id"]: l for l in lines}
    assert by_id["g00"]["passthrough"] is True
    assert by_id["g03"]["passthrough"] is False
    assert by_id["g03"]["refined_answer"].startswith("Revised answer for g03")
    assert by_id["g01"]["feedback"]["low_confidence"] is True
    assert by_id["g04"]["refined_answer"].startswith("Revised answer for g04")


def test_refine_improve_and_generic_cli(tmp_path):
    record = make_record(record_id="solo", answers=[Answer(Source.MODEL, "Tiny answer.")])
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus([record], corpus_path)
    fixtures = tmp_path / "fixtures"
    store = FixtureStore(fixtures)
    for mode, reply in ((RefineMode.IMPROVE, "improved"), (RefineMode.GENERIC, "generic fix")):
        store.record(
            build_refine_prompt(mode, record.question, "Tiny answer."), [reply]
        )
    for mode, reply in (("improve", "improved"), ("generic", "generic fix")):
        out = tmp_path / f"{mode}.jsonl"
        code = main(
            ["refine", str(corpus_path), "--mode", mode,
             "--backend", f"scripted:{fixtures}", "--out", str(out)]
        )
        assert code == 0
        (line,) = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert line["refined_answer"] == reply
        assert line["feedback"] is None


_FEEDBACK_KEYS = [
    "record_id", "answer_index", "tag_score", "reason_score", "n_sampled", "n_parseable",
    "low_confidence", "selected",
]
_REFINE_KEYS = ["record_id", "answer_index", "mode", "passthrough", "refined_answer", "feedback"]


@pytest.mark.parametrize(
    ("command", "keys", "audit_keys"),
    [
        (["feedback"], _FEEDBACK_KEYS, ["selected_raw", "samples_raw"]),
        *(
            (["refine", "--mode", mode], _REFINE_KEYS, ["question", "original_answer", "prompt"])
            for mode in ("eir", "improve", "generic")
        ),
    ],
    ids=["feedback", "eir", "improve", "generic"],
)
@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audit"])
def test_batch_line_key_order(command, keys, audit_keys, audit, tmp_path):
    answer = "Tiny answer. It has two sentences."
    record = make_record(record_id="solo", answers=[Answer(Source.MODEL, answer)])
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus([record], corpus_path)
    fixtures = tmp_path / "fixtures"
    store = FixtureStore(fixtures)
    sentences = sentence_texts(answer, segment_sentences(answer))
    store.record(
        build_feedback_prompt(record.question, sentences),
        ["1. [Incomplete] Reasons: too short\n2. [Complete]"] * 20,
    )
    store.record(
        build_refine_prompt(RefineMode.ERROR_INFORMED, record.question, answer, ["too short"]),
        ["eir fix"],
    )
    for mode in (RefineMode.IMPROVE, RefineMode.GENERIC):
        store.record(build_refine_prompt(mode, record.question, answer), [f"{mode.value} fix"])
    out = tmp_path / "out.jsonl"
    argv = [*command, str(corpus_path), "--backend", f"scripted:{fixtures}", "--out", str(out)]
    assert main(argv + (["--audit"] if audit else [])) == 0
    (line,) = out.read_text(encoding="utf-8").splitlines()
    assert list(json.loads(line)) == keys + (audit_keys if audit else [])


def _no_thread_pool(*args, **kwargs):
    raise AssertionError("a run whose clients are all scripted started a thread pool")


def test_feedback_cli_partial_failure_exit_3(golden_env, tmp_path, capsys, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    assert _run_feedback_cli(golden_env, clean) == 0
    # the golden corpus with a record that has no fixture in its middle
    extra = make_record(record_id="missing", answers=[Answer(Source.MODEL, "No fixture here.")])
    lines = Path(golden_env["corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(4, json.dumps(
        {
            "id": "missing", "domain": "law", "question": extra.question,
            "answers": [{"source": "model", "text": "No fixture here."}],
            "annotations": [], "preferences": [],
        }
    ) + "\n")
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(cli_module, "ThreadPoolExecutor", _no_thread_pool)
    out = tmp_path / "fb.jsonl"
    code = main(
        ["feedback", str(corpus_path), "--backend", f"scripted:{golden_env['fixtures']}",
         "--out", str(out)]
    )
    assert code == 3
    assert "failed: 'missing'#0: no fixture" in capsys.readouterr().err
    # the good records still landed, in corpus order
    assert out.read_bytes() == clean.read_bytes()
    assert not Path(f"{out}.partial").exists()


@pytest.mark.parametrize(
    ("command", "runner"),
    [(["feedback"], "run_feedback"), (["refine", "--mode", "eir"], "run_eir")],
)
def test_scripted_batch_runs_start_no_thread(command, runner, golden_env, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "ThreadPoolExecutor", _no_thread_pool)
    real = getattr(cli_module, runner)
    seen = []

    def counting(*args, **kwargs):
        seen.append(threading.active_count())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_module, runner, counting)
    before = threading.active_count()
    code = main(
        [*command, str(golden_env["corpus"]),
         "--backend", f"scripted:{golden_env['fixtures']}",
         "--workers", "4", "--out", str(tmp_path / "out.jsonl")]
    )
    assert code == 0
    assert seen == [before] * 10
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the batch runner's pool: cli.ThreadPoolExecutor


def test_pool_runs_each_item_once_under_fast_thread_switches():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    runs = Counter()
    lock = threading.Lock()

    def item(x):
        time.sleep(0)  # lets another thread in mid-item
        with lock:
            runs[x] += 1

    pool = cli_module.ThreadPoolExecutor(8)  # more slots than cores
    try:
        assert list(pool.map(item, range(500))) == []  # each item reports its own result
    finally:
        pool.shutdown()
        sys.setswitchinterval(switch)
    assert runs == Counter(range(500))


def test_pool_runs_max_workers_items_at_once_the_caller_among_them():
    pool = cli_module.ThreadPoolExecutor(3)
    barrier = threading.Barrier(3, timeout=10)  # broken unless three items run at once
    lock = threading.Lock()
    running = peak = 0
    runners = set()

    def item(x):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            runners.add(threading.current_thread())
        try:
            barrier.wait()
        finally:
            with lock:
                running -= 1
        return x

    try:
        assert not list(pool.map(item, range(12)))
    finally:
        pool.shutdown()
    assert peak == 3
    assert threading.main_thread() in runners  # the calling thread is one of the three slots
    assert len(runners) == 3


def test_pool_raises_a_helpers_exception_once_every_started_item_has_ended():
    pool = cli_module.ThreadPoolExecutor(3)
    caller = threading.current_thread()
    lock = threading.Lock()
    started, ended = [], []
    three = threading.Barrier(3, timeout=10)  # the first three items run at once
    raised = threading.Event()

    def item(x):
        with lock:
            started.append(x)
        try:
            three.wait()
            with lock:
                fails = threading.current_thread() is not caller and not raised.is_set()
                if fails:
                    raised.set()
            if fails:
                raise ValueError(x)
            assert raised.wait(10)
            time.sleep(0.05)  # long after the helper's exception
        finally:
            with lock:
                ended.append(x)

    try:
        with pytest.raises(ValueError) as caught:
            for _ in pool.map(item, range(30)):
                pass
        with lock:
            seen_ended = sorted(ended)
    finally:
        pool.shutdown()
    assert caught.value.args[0] in (0, 1, 2)  # raised on a helper
    assert sorted(started) == [0, 1, 2]  # no item started after it
    assert seen_ended == [0, 1, 2]  # every started item ended before it was raised


def test_pool_shutdown_with_cancel_futures_starts_no_queued_item():
    before = threading.active_count()
    pool = cli_module.ThreadPoolExecutor(2)
    started, release = [], threading.Event()

    def held(x):
        started.append(x)
        release.wait(10)
        return x

    pool.map(held, range(5))
    deadline = time.monotonic() + 10
    while not started:  # the helper has taken the first item
        assert time.monotonic() < deadline
        time.sleep(0.001)
    pool.shutdown(wait=False, cancel_futures=True)
    release.set()
    pool.shutdown()
    assert started == [0]
    assert threading.active_count() == before


def test_pool_frees_what_fn_holds_without_the_cyclic_collector():
    class Held:
        pass

    held = Held()
    alive = weakref.ref(held)

    def item(x, held=held):
        return x

    gc.disable()
    try:
        pool = cli_module.ThreadPoolExecutor(3)
        results = pool.map(item, range(20))
        assert not list(results)
        pool.shutdown()
        del pool, results, item, held
        assert alive() is None  # no reference cycle keeps fn, or what it holds
    finally:
        gc.enable()


def test_http_batch_run_starts_one_thread_fewer_than_its_slots_and_leaves_none(
    tmp_path, monkeypatch
):
    corpus, config = tmp_path / "corpus.jsonl", tmp_path / "cfg"
    save_corpus([make_record(record_id=f"r{i:02}") for i in range(12)], corpus)
    config.write_text(  # four connection slots; no socket is opened
        "feedback.kind = http\nfeedback.endpoint_url = http://127.0.0.1:9/v1\n"
        "feedback.model_name = stub\nfeedback.temperature = 0.7\nfeedback.max_in_flight = 4\n",
        encoding="utf-8",
    )
    seen = []

    class Feedback:
        def to_dict(self, audit):
            return {"n_sampled": 20}

    def slow_feedback(config, opened, record, idx):
        seen.append(threading.active_count())
        time.sleep(0.01)
        return Feedback()

    monkeypatch.setattr(cli_module, "_feedback", slow_feedback)
    before = threading.active_count()
    out = tmp_path / "out.jsonl"
    assert quiet_main(["feedback", str(corpus), "--config", str(config), "--out", str(out)]) == (0, "")
    assert len(seen) == 24
    slots = 4
    assert max(seen) == before + 2 * slots - 2  # helpers; the calling thread is the last runner
    assert threading.active_count() == before


class _FixtureStubHandler(BaseHTTPRequestHandler):
    """Chat completions answered from a fixture directory, as the scripted backend would.

    Each good reply hands out a prompt's next n entries, wrapping around, so
    n single-sample requests get what one request for n gets. A request for
    the ``hold`` prompt is held unanswered until the server's
    ``release`` event is set; ``held`` is set once it arrives. A request for
    the ``reject`` prompt gets an HTTP 400, which is not retried. Neither is
    counted in ``posts``. The first request for a prompt in
    ``faults`` gets that fault instead of a good reply: a ``status`` with
    optional ``headers`` and an empty body, or a body cut ``truncate`` bytes
    short of its ``Content-Length`` (HTTP/1.0: the connection then closes).
    Every counted request waits ``delay`` seconds before its reply; ``peak``
    is the most counted requests seen waiting at once, and ``overlap`` is set
    whenever one arrives while another waits.
    """

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        if prompt == server.hold:
            server.held.set()
            server.release.wait(30)
            return
        if prompt == server.reject:
            self.send_response(400)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        n = body.get("n", 1)
        with server.lock:
            server.posts += 1
            server.bodies.append(body)
            fault = server.faults.pop(prompt, {})
            first = server.served[prompt]
            if not fault:
                server.served[prompt] += n
            server.active += 1
            server.peak = max(server.peak, server.active)
            if server.active > 1:
                server.overlap.set()
        if server.delay:  # not time.sleep, which tests patch to see the client's
            threading.Event().wait(server.delay)
        with server.lock:
            server.active -= 1
        if "status" in fault:
            self.send_response(fault["status"])
            for name, value in fault.get("headers", {}).items():
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        texts = server.store.lookup(prompt)
        choices = [
            {"message": {"content": texts[(first + i) % len(texts)]}, "finish_reason": "stop"}
            for i in range(n)
        ]
        payload = json.dumps({"choices": choices}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload[: len(payload) - fault.get("truncate", 0)])

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _fixture_stub(fixtures, tmp_path, hold=None, reject=None, faults=None, delay=0.0, settings=""):
    """Serve the fixtures over HTTP; yields (server, a config file using it for both roles,
    each role also taking the backend keys in settings, such as "native_n = false")."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixtureStubHandler)
    server.daemon_threads = False  # server_close() joins every handler thread
    server.store = FixtureStore(fixtures)
    server.lock = threading.Lock()
    server.posts = 0
    server.bodies = []  # of the requests counted in posts
    server.served = Counter()  # entries handed out, by prompt
    server.delay = delay
    server.active = server.peak = 0
    server.hold = hold
    server.reject = reject
    server.faults = dict(faults or {})
    server.held = threading.Event()
    server.release = threading.Event()
    server.overlap = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    server.thread = thread
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    config = tmp_path / "stub.cfg"
    config.write_text(
        "".join(
            f"{role}.kind = http\n{role}.endpoint_url = {url}\n"
            f"{role}.model_name = stub\n{role}.temperature = 0.0\n"
            + "".join(f"{role}.{line.strip()}\n" for line in settings.splitlines())
            for role in ("feedback", "refine")
        ),
        encoding="utf-8",
    )
    try:
        yield server, config
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.mark.parametrize("command", [["feedback"], ["refine", "--mode", "eir"]])
def test_http_batch_writes_the_scripted_bytes_at_any_workers(
    command, golden_env, tmp_path, monkeypatch
):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli_module, "ThreadPoolExecutor", RecordingPool)
    scripted = tmp_path / "scripted.jsonl"
    code = main(
        [*command, str(golden_env["corpus"]),
         "--backend", f"scripted:{golden_env['fixtures']}", "--out", str(scripted)]
    )
    assert code == 0
    assert pools == []  # a scripted client has no connection slot: the run is inline
    with _fixture_stub(golden_env["fixtures"], tmp_path) as (server, config):
        for workers in ("1", "4", None):
            out = tmp_path / f"http-{workers}.jsonl"
            cap = ["--workers", workers] if workers else []
            code = main(
                [*command, str(golden_env["corpus"]), "--config", str(config),
                 *cap, "--out", str(out)]
            )
            assert code == 0
            assert out.read_bytes() == scripted.read_bytes()
    # 2 x slots - 1 threads, the slots being the connections capped by
    # --workers; one slot runs inline. Each client keeps max_in_flight = 4,
    # and eir opens two.
    slots = {"feedback": 4, "refine": 4 + 4}[command[0]]
    assert pools == [2 * 4 - 1, 2 * slots - 1]


@pytest.mark.parametrize(
    "command", [["feedback"], ["refine", "--mode", "eir"]], ids=["feedback", "refine-eir"]
)
def test_http_batch_without_native_n_writes_the_scripted_bytes(command, golden_env, tmp_path):
    scripted = tmp_path / "scripted.jsonl"
    code = main(
        [*command, str(golden_env["corpus"]),
         "--backend", f"scripted:{golden_env['fixtures']}", "--out", str(scripted)]
    )
    assert code == 0
    out = tmp_path / "http.jsonl"
    stub = _fixture_stub(golden_env["fixtures"], tmp_path, settings="native_n = false")
    with stub as (server, config):
        code = main([*command, str(golden_env["corpus"]), "--config", str(config), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == scripted.read_bytes()
    # 20 single-sample calls per answer; eir refines the 7 answers with an Incomplete sentence
    assert server.posts == {"feedback": 200, "refine": 207}[command[0]]
    assert all("n" not in body for body in server.bodies)


def test_http_feedback_without_native_n_keeps_max_in_flight_calls_in_flight(golden_env, tmp_path):
    settings = "native_n = false\nmax_in_flight = 2"
    stub = _fixture_stub(golden_env["fixtures"], tmp_path, delay=0.01, settings=settings)
    with stub as (server, config):
        code = main(
            ["feedback", str(golden_env["corpus"]), "--config", str(config),
             "--n-samples", "6", "--out", str(tmp_path / "out.jsonl")]
        )
    assert code == 0
    assert server.posts == 60
    # two runner threads, one per slot, each sending its record's calls in turn
    assert server.peak == 2


def test_eir_requests_carry_each_roles_settings(golden_env, tmp_path):
    with _fixture_stub(golden_env["fixtures"], tmp_path) as (server, _):
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        config = tmp_path / "roles.cfg"
        config.write_text(
            f"feedback.kind = http\nfeedback.endpoint_url = {url}\nfeedback.model_name = fb\n"
            "feedback.temperature = 0.7\nfeedback.max_tokens = 99\n"
            f"refine.kind = http\nrefine.endpoint_url = {url}\nrefine.model_name = rf\n"
            "refine.max_tokens = 7\n",  # no refine.temperature: REFINE_TEMPERATURE
            encoding="utf-8",
        )
        code = main(
            ["refine", str(golden_env["corpus"]), "--mode", "eir", "--config", str(config),
             "--n-samples", "8", "--out", str(tmp_path / "out.jsonl")]
        )
    assert code == 0
    settings = Counter(
        (body["model"], body["temperature"], body["max_tokens"], body.get("n"))
        for body in server.bodies
    )
    # every record gets feedback; the three clean ones pass through unrefined
    assert settings == {("fb", 0.7, 99, 8): 10, ("rf", 0.1, 7, None): 7}


def test_eir_refuses_an_unset_feedback_temperature_before_reading_the_corpus(
    golden_env, tmp_path, monkeypatch, capsys
):
    made, closed = [], []
    real_client_for = cli_module._client_for
    real_close = GenerationClient.close

    def recording_client_for(config, role):
        made.append(real_client_for(config, role))
        return made[-1]

    def recording_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(cli_module, "_client_for", recording_client_for)
    monkeypatch.setattr(GenerationClient, "close", recording_close)
    config = tmp_path / "cfg"
    config.write_text(
        f"refine.kind = scripted\nrefine.fixture_dir = {golden_env['fixtures']}\n"
        "feedback.kind = http\nfeedback.endpoint_url = http://127.0.0.1:9/v1\n"
        "feedback.model_name = stub\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    code = main(
        ["refine", str(tmp_path / "missing.jsonl"), "--mode", "eir", "--config", str(config),
         "--out", str(out)]
    )
    assert code == 1
    assert "feedback.temperature is required" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.partial").exists()
    assert [client.config.kind for client in made] == ["scripted", "http"]
    assert sorted(map(id, closed)) == sorted(map(id, made))


def _feedback_prompts(golden_env) -> dict[str, str]:
    """The feedback prompt of each golden record (one answer each), by record id."""
    return {
        record.id: build_feedback_prompt(
            record.question, sentence_texts(answer.text, segment_sentences(answer.text))
        )
        for record in load_corpus(golden_env["corpus"])
        for answer in record.answers
    }


def test_http_faults_mid_run_end_byte_identical(golden_env, tmp_path, monkeypatch):
    scripted = tmp_path / "scripted.jsonl"
    assert _run_feedback_cli(golden_env, scripted) == 0
    prompts = _feedback_prompts(golden_env)
    faults = {
        prompts["g03"]: {"status": 429, "headers": {"Retry-After": "1"}},
        prompts["g05"]: {"status": 503},
        prompts["g07"]: {"truncate": 5},
    }
    sleeps = []
    monkeypatch.setattr(genclient_module.time, "sleep", sleeps.append)
    with _fixture_stub(golden_env["fixtures"], tmp_path, faults=faults) as (server, config):
        out = tmp_path / "http.jsonl"
        code = main(
            ["feedback", str(golden_env["corpus"]), "--config", str(config),
             "--workers", "2", "--out", str(out)]
        )
    assert code == 0
    assert out.read_bytes() == scripted.read_bytes()
    assert server.faults == {}  # every fault was served
    assert server.posts == 10 + 3
    # the backoff twice, and max(backoff, Retry-After) once
    assert sorted(sleeps) == [0.5, 0.5, 1.0]


def _feedback_with_one_fault(
    golden_env, tmp_path, monkeypatch, record_id, fault, wait, workers, settings=""
):
    """Run feedback over the fixture stub, whose first reply for record_id's
    prompt is fault, with time.sleep patched to wait(server, seconds) and the
    backend keys in settings; returns (exit code, --out bytes, the scripted
    run's bytes, the threads the run started)."""
    scripted = tmp_path / "scripted.jsonl"
    assert _run_feedback_cli(golden_env, scripted) == 0
    faults = {_feedback_prompts(golden_env)[record_id]: fault}
    out, started = tmp_path / "http.jsonl", []
    real_start = threading.Thread.start

    def recording_start(thread):
        if threading.current_thread() is not server.thread:  # which starts the stub's handlers
            started.append(thread)
        real_start(thread)

    stub = _fixture_stub(golden_env["fixtures"], tmp_path, faults=faults, delay=0.02, settings=settings)
    with stub as (server, config):
        monkeypatch.setattr(genclient_module.time, "sleep", lambda seconds: wait(server, seconds))
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        code = main(
            ["feedback", str(golden_env["corpus"]), "--config", str(config),
             "--workers", workers, "--out", str(out)]
        )
    assert server.faults == {}
    return code, out.read_bytes(), scripted.read_bytes(), started


def test_http_503_backoff_frees_its_connection_for_another_record(
    golden_env, tmp_path, monkeypatch
):
    before = threading.active_count()
    sleeps, overlapped = [], []

    def wait(server, seconds):
        sleeps.append(seconds)
        server.overlap.clear()
        overlapped.append(server.overlap.wait(5))  # two POSTs at once, on both connections

    code, out, scripted, started = _feedback_with_one_fault(
        golden_env, tmp_path, monkeypatch, "g05", {"status": 503}, wait, "2", "max_in_flight = 2"
    )
    assert code == 0
    assert out == scripted
    assert sleeps == [0.5]
    assert overlapped == [True]
    assert len(started) == 2 * 2 - 2  # the helpers; the calling thread runs records too
    assert threading.active_count() == before


def test_http_429_with_retry_after_keeps_its_connection(golden_env, tmp_path, monkeypatch):
    sleeps, overlapped = [], []

    def wait(server, seconds):
        sleeps.append(seconds)
        server.overlap.clear()
        deadline = time.monotonic() + 5
        while server.posts < 10 or server.active:  # the other connection carries every other record
            assert time.monotonic() < deadline
            threading.Event().wait(0.002)
        overlapped.append(server.overlap.is_set())

    fault = {"status": 429, "headers": {"Retry-After": "1"}}
    code, out, scripted, started = _feedback_with_one_fault(
        golden_env, tmp_path, monkeypatch, "g03", fault, wait, "2", "max_in_flight = 2"
    )
    assert code == 0
    assert out == scripted
    assert sleeps == [1.0]
    assert overlapped == [False]
    assert len(started) == 2 * 2 - 2


def test_http_backoff_with_one_worker_starts_no_thread(golden_env, tmp_path, monkeypatch):
    sleeps = []
    code, out, scripted, started = _feedback_with_one_fault(
        golden_env, tmp_path, monkeypatch, "g05", {"status": 503},
        lambda server, seconds: sleeps.append(seconds), "1",
    )
    assert code == 0
    assert out == scripted
    assert sleeps == [0.5]
    assert started == []


def _killed_feedback_run(
    golden_env, tmp_path, out: Path, workers: str, written: int, hold: str, reject: str | None = None
) -> None:
    """Run a resumed feedback child against the fixture stub and SIGKILL it.

    The stub holds the request of record ``hold`` and rejects that of record
    ``reject``. Lines go to OUT.partial as their records finish, after the
    lines --resume keeps: the kill comes once OUT.partial holds at least
    ``written`` lines. With one worker the run is inline, so no line after the
    held record's can be written; with more, the other records' lines may be
    there too, in any order.
    """
    prompts = _feedback_prompts(golden_env)
    partial = Path(f"{out}.partial")
    stub = {"hold": prompts[hold], "reject": reject and prompts[reject]}
    with _fixture_stub(golden_env["fixtures"], tmp_path, **stub) as (server, config):
        child = subprocess.Popen(
            [sys.executable, "-m", "lfqa_eval.cli", "feedback", str(golden_env["corpus"]),
             "--config", str(config), "--workers", workers, "--resume", "--out", str(out)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert server.held.wait(60), "the child never reached the held request"
            deadline = time.monotonic() + 60
            while partial.read_text(encoding="utf-8").count("\n") < written:
                assert child.poll() is None, "the child exited before the kill"
                assert time.monotonic() < deadline, "OUT.partial never held the lines"
                time.sleep(0.01)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL


def _ids(lines: list[str]) -> list[str]:
    return [json.loads(line)["record_id"] for line in lines]


def _assert_clean_lines(lines: list[str], clean_lines: list[str], absent: tuple[str, ...]) -> None:
    """Each line is the clean run's line for its record, in any order; no
    record has two lines, and none of absent has one."""
    clean_by_id = dict(zip(_ids(clean_lines), clean_lines))
    ids = _ids(lines)
    assert len(set(ids)) == len(ids)
    assert not set(ids) & set(absent)
    assert lines == [clean_by_id[i] for i in ids]


@pytest.mark.parametrize("workers", ["1", "4"])
def test_killed_feedback_run_keeps_out_and_resumes_byte_identical(workers, golden_env, tmp_path):
    clean = tmp_path / "clean.jsonl"
    assert _run_feedback_cli(golden_env, clean) == 0
    clean_lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    out = tmp_path / "fb.jsonl"
    previous = "".join(clean_lines[:2])  # an earlier interrupted run
    out.write_text(previous, encoding="utf-8")
    partial = Path(f"{out}.partial")
    _killed_feedback_run(golden_env, tmp_path, out, workers, written=5, hold="g05")
    assert out.read_text(encoding="utf-8") == previous
    kept = partial.read_text(encoding="utf-8").splitlines(keepends=True)
    if workers == "1":  # inline: whole lines in corpus order, the clean run's up to the held record
        assert kept == clean_lines[:5]
    else:  # the kept --out lines first, then finished lines in any order
        assert kept[:2] == clean_lines[:2]
        _assert_clean_lines(kept, clean_lines, absent=("g05",))
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 0
    assert out.read_bytes() == clean.read_bytes()
    assert not partial.exists()


def test_kill_behind_a_held_record_keeps_every_finished_line(golden_env, tmp_path):
    clean = tmp_path / "clean.jsonl"
    assert _run_feedback_cli(golden_env, clean) == 0
    clean_lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    out = tmp_path / "fb.jsonl"
    partial = Path(f"{out}.partial")
    # g01 is held while every later record finishes: the kill comes once
    # OUT.partial holds the lines of all nine, so no record is in flight but g01
    _killed_feedback_run(golden_env, tmp_path, out, "4", written=9, hold="g01")
    assert not out.exists()
    kept = partial.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(kept) == 9
    _assert_clean_lines(kept, clean_lines, absent=("g01",))

    with _fixture_stub(golden_env["fixtures"], tmp_path) as (server, config):
        code = main(
            ["feedback", str(golden_env["corpus"]), "--config", str(config),
             "--workers", "4", "--resume", "--out", str(out)]
        )
    assert code == 0
    # the resumed run computes only the held record
    prompts = _feedback_prompts(golden_env)
    assert [body["messages"][0]["content"] for body in server.bodies] == [prompts["g01"]]
    assert out.read_bytes() == clean.read_bytes()
    assert not partial.exists()


@pytest.mark.parametrize("workers", ["1", "4"])
def test_second_kill_after_resume_loses_no_line(workers, golden_env, tmp_path, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    assert _run_feedback_cli(golden_env, clean) == 0
    clean_lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    out = tmp_path / "fb.jsonl"
    previous = clean_lines[:2]  # an earlier interrupted run
    out.write_text("".join(previous), encoding="utf-8")
    partial = Path(f"{out}.partial")

    # First kill: g03 fails, so OUT.partial has no line for it, and g05 is held.
    _killed_feedback_run(golden_env, tmp_path, out, workers, written=4, hold="g05", reject="g03")
    assert out.read_text(encoding="utf-8") == "".join(previous)
    first = partial.read_text(encoding="utf-8").splitlines(keepends=True)
    # the kept --out lines come first, and no finished line is dropped
    if workers == "1":
        assert first == [clean_lines[i] for i in (0, 1, 2, 4)]
    else:
        assert first[:2] == previous
        _assert_clean_lines(first, clean_lines, absent=("g03", "g05"))

    # Second kill, held on the resumed run's first request (g03): every line
    # kept so far is now in --out, in corpus order.
    _killed_feedback_run(golden_env, tmp_path, out, workers, written=3, hold="g03")
    assert out.read_text(encoding="utf-8") == "".join(l for l in clean_lines if l in first)
    second = partial.read_text(encoding="utf-8").splitlines(keepends=True)
    # every kept line is written again before any record starts
    if workers == "1":
        assert second == [clean_lines[i] for i in (0, 1, 2, 4)]
    else:
        assert second[: len(first)] == [l for l in clean_lines if l in first]
        _assert_clean_lines(second, clean_lines, absent=("g03",))

    computed = []
    real = cli_module.run_feedback
    ids = {record.question: record.id for record in load_corpus(golden_env["corpus"])}

    def recording(question, *args, **kwargs):
        computed.append(ids[question])
        return real(question, *args, **kwargs)

    monkeypatch.setattr(cli_module, "run_feedback", recording)
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 0
    assert out.read_bytes() == clean.read_bytes()
    assert not partial.exists()
    # the last resume recomputes no record an earlier run wrote
    assert computed == [i for i in _ids(clean_lines) if i not in _ids(second)]


def test_resume_reads_partial_whose_lines_win(golden_env, tmp_path, capsys, monkeypatch):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    clean = out.read_bytes()
    lines = clean.decode("utf-8").splitlines()
    stale = json.dumps({**json.loads(lines[0]), "tag_score": -1.0})
    out.write_text("\n".join([stale, *lines[1:3]]) + "\n", encoding="utf-8")
    partial = Path(f"{out}.partial")
    partial.write_text("\n".join(lines[:5]) + "\n" + lines[5][:10], encoding="utf-8")
    computed = []
    real = cli_module.run_feedback
    ids = {record.question: record.id for record in load_corpus(golden_env["corpus"])}

    def recording(question, *args, **kwargs):
        computed.append(ids[question])
        return real(question, *args, **kwargs)

    monkeypatch.setattr(cli_module, "run_feedback", recording)
    capsys.readouterr()
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 0
    assert out.read_bytes() == clean
    assert not partial.exists()
    assert computed == [f"g{i:02d}" for i in range(5, 10)]  # the torn line 6 is recomputed
    assert f"{partial}: line 6: torn last line dropped" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("first", "again", "difference"),
    [
        (["feedback", "--n-samples", "7"], ["feedback"], "n_sampled 7 but this run has 20"),
        (
            ["refine", "--mode", "eir", "--n-samples", "7"],
            ["refine", "--mode", "eir"],
            "feedback.n_sampled 7 but this run has 20",
        ),
        (
            ["refine", "--mode", "eir"],
            ["refine", "--mode", "improve"],
            "mode 'error_informed' but this run has 'improve'",
        ),
        (["feedback"], ["feedback", "--audit"], "audit False but this run has True"),
        (["feedback", "--audit"], ["feedback"], "audit True but this run has False"),
        (
            ["refine", "--mode", "eir"],
            ["refine", "--mode", "eir", "--audit"],
            "audit False but this run has True",
        ),
        (
            ["refine", "--mode", "eir", "--audit"],
            ["refine", "--mode", "eir"],
            "audit True but this run has False",
        ),
    ],
    ids=["feedback-n-samples", "eir-n-samples", "refine-mode", "feedback-to-audit",
         "feedback-from-audit", "eir-to-audit", "eir-from-audit"],
)
@pytest.mark.parametrize("kept_in", ["out", "partial"])
def test_resume_refuses_lines_of_another_run(
    first, again, difference, kept_in, golden_env, tmp_path, capsys
):
    out = tmp_path / "out.jsonl"
    backend = ["--backend", f"scripted:{golden_env['fixtures']}"]
    assert main([*first, str(golden_env["corpus"]), *backend, "--out", str(out)]) == 0
    kept = out if kept_in == "out" else Path(f"{out}.partial")
    out.rename(kept)
    before = kept.read_bytes()
    capsys.readouterr()
    code = main([*again, str(golden_env["corpus"]), *backend, "--resume", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{kept}: line 1: record 'g00' answer 0 has {difference}" in err
    assert kept.read_bytes() == before
    assert [p.name for p in tmp_path.glob("out.jsonl*")] == [kept.name]


def _renamed_record(golden_env, out: Path, record_id: str = "zz") -> tuple[list[str], str]:
    """A feedback --out whose first line is renamed to a record the corpus lacks."""
    assert _run_feedback_cli(golden_env, out) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "record_id": record_id})
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    backend = ["--backend", f"scripted:{golden_env['fixtures']}"]
    return ["feedback", str(golden_env["corpus"]), *backend], f"record {record_id!r} answer 0"


def _renamed_to_a_newline(golden_env, out: Path) -> tuple[list[str], str]:
    """A renamed record whose id is a newline, shown as its repr so the error is one line."""
    return _renamed_record(golden_env, out, "\n")


def _unselected_answer(golden_env, out: Path) -> tuple[list[str], str]:
    """An --answer all run over a corpus that adds a human answer to each record,
    resumed with --answer model; the human answer repeats the model one, so its
    prompt has a fixture."""
    corpus = load_corpus(golden_env["corpus"])
    for record in corpus:
        record.answers.insert(0, Answer(Source.HUMAN, record.answers[0].text))
    path = out.parent / "two_answers.jsonl"
    save_corpus(corpus, path)
    argv = ["feedback", str(path), "--backend", f"scripted:{golden_env['fixtures']}"]
    assert main([*argv, "--answer", "all", "--out", str(out)]) == 0
    return [*argv, "--answer", "model"], "record 'g00' answer 0"


@pytest.mark.parametrize("make_out", [_renamed_record, _renamed_to_a_newline, _unselected_answer],
                         ids=["renamed-record", "renamed-to-a-newline", "unselected-answer"])
@pytest.mark.parametrize("kept_in", ["out", "partial"])
def test_resume_refuses_lines_that_are_not_targets(
    make_out, kept_in, golden_env, tmp_path, capsys
):
    out = tmp_path / "out.jsonl"
    again, key = make_out(golden_env, out)
    kept = out if kept_in == "out" else Path(f"{out}.partial")
    out.rename(kept)
    before = kept.read_bytes()
    capsys.readouterr()
    assert main([*again, "--resume", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{kept}: line 1: {key} is not a target of this run" in err
    assert err.count("\n") == 1
    assert kept.read_bytes() == before
    assert sorted(p.name for p in tmp_path.glob("out.jsonl*")) == [kept.name]


@pytest.mark.parametrize("kept_in", ["out", "partial"])
def test_resume_refuses_a_duplicate_line(kept_in, golden_env, tmp_path, capsys):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    partial = Path(f"{out}.partial")
    edited = json.dumps({**json.loads(lines[1]), "tag_score": -1.0})  # a second line for g01
    with_duplicate = "\n".join([*lines[:3], edited]) + "\n"
    out.write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
    partial.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    broken = out if kept_in == "out" else partial
    broken.write_text(with_duplicate, encoding="utf-8")
    before = out.read_bytes(), partial.read_bytes()
    capsys.readouterr()
    assert _run_feedback_cli(golden_env, out, ("--resume",)) == 1
    err = capsys.readouterr().err
    assert f"{broken}: line 4: duplicate key ('g01', 0) (first seen on line 2)" in err
    assert (out.read_bytes(), partial.read_bytes()) == before


def test_audit_flag_includes_raw(golden_env, tmp_path):
    out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, out, ("--audit",)) == 0
    line = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert "selected_raw" in line
    assert len(line["samples_raw"]) == 20


def test_refine_audit_retains_prompt(golden_env, tmp_path):
    out = tmp_path / "refine.jsonl"
    code = main(
        ["refine", str(golden_env["corpus"]), "--mode", "eir",
         "--backend", f"scripted:{golden_env['fixtures']}",
         "--out", str(out), "--audit"]
    )
    assert code == 0
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    by_id = {l["record_id"]: l for l in lines}
    assert "not complete because" in by_id["g03"]["prompt"]
    assert by_id["g00"]["prompt"] == ""  # passthrough sent no refine prompt
    assert by_id["g03"]["original_answer"]


def test_feedback_cli_http_backend(tmp_path):
    import json as json_mod
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    reply = "1. [Incomplete] Reasons: misses the scope of protection.\n2. [Complete]"

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json_mod.loads(self.rfile.read(int(self.headers["Content-Length"])))
            choices = [
                {"message": {"content": reply}, "finish_reason": "stop"}
                for _ in range(body.get("n", 1))
            ]
            payload = json_mod.dumps({"choices": choices}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        record = make_record(record_id="h1", answers=[Answer(Source.MODEL,
            "A trademark protects a logo. A copyright protects content.")])
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus([record], corpus_path)
        config_path = tmp_path / "cfg"
        config_path.write_text(
            "feedback.kind = http\n"
            f"feedback.endpoint_url = http://127.0.0.1:{server.server_address[1]}/v1\n"
            "feedback.model_name = stub\n"
            "feedback.temperature = 0.7\n",
            encoding="utf-8",
        )
        out = tmp_path / "fb.jsonl"
        code = main(
            ["feedback", str(corpus_path), "--config", str(config_path),
             "--n-samples", "4", "--out", str(out)]
        )
        assert code == 0
        (line,) = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert line["selected"]["tags"] == ["Incomplete", "Complete"]
        assert line["n_sampled"] == 4
    finally:
        server.shutdown()
        server.server_close()


def test_feedback_cli_http_requires_temperature(tmp_path, capsys):
    record = make_record(record_id="h1")
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus([record], corpus_path)
    config_path = tmp_path / "cfg"
    config_path.write_text(
        "feedback.kind = http\n"
        "feedback.endpoint_url = http://127.0.0.1:1/v1\n"
        "feedback.model_name = stub\n",
        encoding="utf-8",
    )
    code = main(
        ["feedback", str(corpus_path), "--config", str(config_path),
         "--out", str(tmp_path / "fb.jsonl")]
    )
    assert code == 1
    assert "temperature" in capsys.readouterr().err


def _unreachable_http_config(tmp_path, extra: str = "") -> Path:
    """A config file with http feedback and refine roles whose endpoint nothing serves."""
    config_path = tmp_path / "cfg"
    config_path.write_text(
        "".join(
            f"{role}.kind = http\n{role}.endpoint_url = http://127.0.0.1:1/v1\n"
            f"{role}.model_name = stub\n{role}.temperature = 0.0\n"
            for role in ("feedback", "refine")
        )
        + extra,
        encoding="utf-8",
    )
    return config_path


@pytest.mark.parametrize("command", [["feedback"], ["refine", "--mode", "eir"]])
def test_missing_credential_fails_the_run_before_any_record(
    command, golden_env, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("LFQA_EVAL_UNSET_KEY", raising=False)
    config_path = _unreachable_http_config(tmp_path, "feedback.auth_env = LFQA_EVAL_UNSET_KEY\n")

    def no_corpus(path):
        raise AssertionError("the corpus was loaded before the clients were made")

    monkeypatch.setattr(cli_module, "load_corpus", no_corpus)
    out = tmp_path / "out.jsonl"
    out.write_text('{"record_id": "g00", "answer_index": 0}\n', encoding="utf-8")
    before = out.read_bytes()
    code = main(
        [*command, str(golden_env["corpus"]), "--config", str(config_path),
         "--resume", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "credential environment variable 'LFQA_EVAL_UNSET_KEY' is not set" in err
    assert err.count("error:") == 1
    assert out.read_bytes() == before
    assert not Path(f"{out}.partial").exists()


@pytest.mark.parametrize("command", [["feedback"], ["refine", "--mode", "eir"]])
def test_credential_no_header_may_carry_fails_the_run_unquoted(
    command, golden_env, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("LFQA_EVAL_BAD_KEY", "abc123secret\n")
    config_path = _unreachable_http_config(tmp_path, "feedback.auth_env = LFQA_EVAL_BAD_KEY\n")
    out = tmp_path / "out.jsonl"
    code = main(
        [*command, str(golden_env["corpus"]), "--config", str(config_path), "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: credential environment variable 'LFQA_EVAL_BAD_KEY' holds")
    assert err.count("\n") == 1 and "abc123secret" not in err
    assert not out.exists() and not Path(f"{out}.partial").exists()


_CLI_IN_CHILD = """
import contextlib, io, json, sys
if "--no-requests" in sys.argv:
    sys.modules["requests"] = sys.modules["urllib3"] = None
from lfqa_eval import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = [
    m for m in ("requests", "urllib3", "http.client", "ssl", "concurrent.futures", "logging", "queue",
                "netrc", "base64")
    if sys.modules.get(m) is not None
]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _cli_in_child(argvs: list[list[str]], *flags: str) -> tuple[dict, str]:
    """Run each argv through cli.main in one fresh interpreter: (exit codes and the
    HTTP and thread-pool modules loaded after the last, stderr)."""
    done = run_python(_CLI_IN_CHILD, json.dumps(argvs), *flags)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), done.stderr


def test_importing_the_cli_loads_no_http_stack():
    assert _cli_in_child([]) == ({"codes": [], "loaded": []}, "")


@pytest.mark.parametrize("flags", [(), ("--no-requests",)], ids=["requests", "no-requests"])
def test_analysis_and_scripted_runs_load_no_http_stack(flags, golden_env, tmp_path):
    corpus, backend = str(golden_env["corpus"]), f"scripted:{golden_env['fixtures']}"
    argvs = [
        ["validate", corpus],
        ["score", corpus, "--out", str(tmp_path / "cards.jsonl")],
        ["feedback", corpus, "--backend", backend, "--out", str(tmp_path / "fb.jsonl")],
        ["refine", corpus, "--mode", "eir", "--backend", backend,
         "--out", str(tmp_path / "eir.jsonl")],
    ]
    assert _cli_in_child(argvs, *flags) == ({"codes": [0, 0, 0, 0], "loaded": []}, "")
    for argv in argvs[1:]:
        reference = tmp_path / "reference.jsonl"
        assert main([*argv[:-1], str(reference)]) == 0
        assert Path(argv[-1]).read_bytes() == reference.read_bytes()


_MODULES_IN_CHILD = """
import contextlib, io, json, sys
from lfqa_eval import cli
modules = ("hashlib", "_hashlib", "concurrent.futures", "logging", "queue", "unicodedata")
loaded = []
for argvs in json.loads(sys.argv[1]):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    loaded.append([m for m in modules if m in sys.modules])
print(json.dumps(loaded))
"""


def test_scripted_and_analysis_runs_load_no_openssl_or_thread_pool(
    golden_env, small_corpus, tmp_path
):
    corpus, backend = str(golden_env["corpus"]), f"scripted:{golden_env['fixtures']}"
    predictions = tmp_path / "predictions.jsonl"
    assert _run_feedback_cli(golden_env, predictions) == 0
    # every prompt is digested to name its fixture, with CPython's built-in SHA-256;
    # a scripted client has no connection slot, so the runner makes no pool
    scripted = [
        ["feedback", corpus, "--backend", backend, "--out", str(tmp_path / "fb.jsonl")],
        ["refine", corpus, "--mode", "eir", "--backend", backend,
         "--out", str(tmp_path / "eir.jsonl")],
    ]
    analysis = [
        ["validate", corpus],
        ["score", corpus, "--out", str(tmp_path / "cards.jsonl")],
        ["agreement", corpus, "--out", str(tmp_path / "agreement.jsonl")],
        ["eval-detect", corpus, "--predictions", str(predictions),
         "--out", str(tmp_path / "detect.jsonl")],
    ]
    # stats classifies the annotated spans, which reads unicode categories; it runs last
    stats = [["stats", str(small_corpus), "--out", str(tmp_path / "stats.jsonl")]]
    done = run_python(_MODULES_IN_CHILD, json.dumps([scripted, analysis, stats]))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], ["unicodedata"]]


@pytest.mark.parametrize(
    "command", [["feedback"], ["refine", "--mode", "eir"]], ids=["feedback", "refine-eir"]
)
def test_http_run_without_requests_writes_the_scripted_bytes(
    command, golden_env, tmp_path, monkeypatch
):
    monkeypatch.setenv("NETRC", str(tmp_path / "no-netrc"))  # whatever ~/.netrc holds
    scripted = tmp_path / "scripted.jsonl"
    code = main(
        [*command, str(golden_env["corpus"]),
         "--backend", f"scripted:{golden_env['fixtures']}", "--out", str(scripted)]
    )
    assert code == 0
    out = tmp_path / "http.jsonl"
    with _fixture_stub(golden_env["fixtures"], tmp_path) as (server, config):
        argv = [*command, str(golden_env["corpus"]), "--config", str(config),
                "--workers", "2", "--out", str(out)]
        report, err = _cli_in_child([argv], "--no-requests")
    # the runner's pool of 2 slots and the client's connections need only threading;
    # with no netrc file and no Basic header to build, netrc and base64 stay unloaded
    assert (report, err) == ({"codes": [0], "loaded": []}, "")
    assert out.read_bytes() == scripted.read_bytes()


# ---------------------------------------------------------------------------
# eval-detect / eval-correct / selfcheck


def test_eval_detect_cli(tmp_path, capsys):
    text = "First sentence here. Second sentence here."
    records = [
        make_record(
            record_id="d1",
            answers=[Answer(Source.MODEL, text)],
            annotations=[ErrorAnnotation(Aspect.COMPLETENESS, 0, (21, 42), "gold", "a")],
        )
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(records, corpus_path)
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text(
        json.dumps({"record_id": "d1", "answer_index": 0, "tags": ["Incomplete", "Complete"]})
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "detect.jsonl"
    code = main(
        ["eval-detect", str(corpus_path), "--predictions", str(predictions), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["adjacent"] == 1
    assert summary["weighted_accuracy"] == 0.5
    assert "weighted accuracy" in capsys.readouterr().out


def test_eval_detect_out_is_one_detection_eval_report(tmp_path):
    text = "First sentence here. Second sentence here."
    record = make_record(
        record_id="d1",
        answers=[Answer(Source.HUMAN, text), Answer(Source.MODEL, text)],
        annotations=[
            ErrorAnnotation(Aspect.COMPLETENESS, 0, (21, 42), "gold", "a"),
            ErrorAnnotation(Aspect.COMPLETENESS, 1, (0, 20), "gold", "a"),
        ],
    )
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus([record], corpus_path)
    rows = [
        ("ghost-b", 1, ["Complete"]),
        ("d1", 0, ["Incomplete", "Complete"]),
        ("ghost-a", 0, ["Complete"]),
        ("d1", 1, ["Incomplete", "Complete"]),
    ]
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text(
        "".join(
            json.dumps({"record_id": r, "answer_index": i, "tags": tags}) + "\n"
            for r, i, tags in rows
        ),
        encoding="utf-8",
    )
    out = tmp_path / "detect.jsonl"
    code = main(
        ["eval-detect", str(corpus_path), "--predictions", str(predictions), "--out", str(out)]
    )
    assert code == 0
    report = detection_eval(
        completeness_gold(load_corpus(corpus_path)),
        [
            ((r, i), (len(tags), tuple(k for k, tag in enumerate(tags) if tag == "Incomplete")))
            for r, i, tags in rows
        ],
    )
    assert out.read_text(encoding="utf-8") == cli_module._dump(report.to_dict()) + "\n"
    # skipped ids keep prediction-file order, whatever their answer index
    assert report.skipped == ["ghost-b", "ghost-a"]
    assert (report.counts.adjacent, report.counts.exact, report.n_records) == (1, 1, 2)


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "--predictions {path}: line 2: expected a JSON object"),
        ('{"record_id": "d1", "selected": null}', "line 2: prediction for 'd1' has no tags"),
        (
            '{"record_id": "d1", "answer_index": "first", "tags": ["Complete", "Complete"]}',
            "line 2: record 'd1': answer_index 'first' is not an integer",
        ),
        (
            '{"record_id": "d1", "answer_index": 1.5, "tags": ["Complete", "Complete"]}',
            "line 2: record 'd1': answer_index 1.5 is not an integer",
        ),
        (
            '{"record_id": "d1", "answer_index": true, "tags": ["Complete", "Complete"]}',
            "line 2: record 'd1': answer_index True is not an integer",
        ),
        (
            '{"record_id": "d1", "tags": ["Complete", "Complete"]}',
            "line 2: duplicate key ('d1', 0) (first seen on line 1)",
        ),
        (
            '{"answer_index": 0, "tags": ["Complete", "Complete"]}',
            "--predictions {path}: line 2: line has no record_id",
        ),
        (
            '{"record_id": null, "tags": ["Complete", "Complete"]}',
            "--predictions {path}: line 2: line has no record_id",
        ),
        (
            '{"record_id": 7, "tags": ["Complete", "Complete"]}',
            "--predictions {path}: line 2: record_id 7 is not a non-empty string",
        ),
        (
            '{"record_id": "", "tags": ["Complete", "Complete"]}',
            "--predictions {path}: line 2: record_id '' is not a non-empty string",
        ),
        (
            '{"record_id": "d2", "tags": ["incomplete", "Complete"]}',
            "line 2: record 'd2': tag 'incomplete' is neither Complete nor Incomplete",
        ),
        (
            '{"record_id": "d2", "tags": ["Complete", true]}',
            "line 2: record 'd2': tag True is neither Complete nor Incomplete",
        ),
        (
            '{"record_id": "d1", "answer_index": -1, "tags": ["Complete", "Complete"]}',
            "line 2: record 'd1': answer_index -1 is not an integer >= 0",
        ),
        (
            '{"record_id": "d1", "answer_index": 1, "tags": ["Complete", "Complete"]}',
            "--predictions {path}: line 2: record 'd1': answer_index 1 out of range 0..0",
        ),
        (
            '{"record_id": "d1", "answer_index": "0", "tags": ["Complete", "Complete"]}',
            "--predictions {path}: line 2: record 'd1': answer_index '0' is not an integer >= 0",
        ),
        ('{"answer_index": 0}', "--predictions {path}: line 2: line has no record_id"),
    ],
    ids=[
        "not-an-object",
        "null-selected",
        "bad-answer-index",
        "fractional-answer-index",
        "bool-answer-index",
        "duplicate",
        "no-record-id",
        "null-record-id",
        "numeric-record-id",
        "empty-record-id",
        "lowercase-tag",
        "non-string-tag",
        "negative-answer-index",
        "answer-index-past-the-answers",
        "numeric-string-answer-index",
        "no-record-id-and-no-tags",
    ],
)
def test_eval_detect_malformed_prediction_line_exits_1(line, message, tmp_path, capsys):
    text = "First sentence here. Second sentence here."
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus([make_record(record_id="d1", answers=[Answer(Source.MODEL, text)])], corpus_path)
    predictions = tmp_path / "pred.jsonl"
    first = {"record_id": "d1", "answer_index": 0, "tags": ["Complete", "Complete"]}
    predictions.write_text(json.dumps(first) + "\n" + line + "\n", encoding="utf-8")
    code = main(["eval-detect", str(corpus_path), "--predictions", str(predictions)])
    assert code == 1
    assert message.format(path=predictions) in capsys.readouterr().err


def test_eval_detect_tag_count_mismatch_names_the_line(tmp_path, capsys):
    text = "First sentence here. Second sentence here."
    corpus_path = tmp_path / "corpus.jsonl"
    records = [make_record(record_id=r, answers=[Answer(Source.MODEL, text)]) for r in ("d1", "d2")]
    save_corpus(records, corpus_path)
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text(
        '{"record_id": "d1", "tags": ["Complete", "Complete"]}\n'
        '{"record_id": "d2", "tags": ["Complete", "Complete", "Incomplete"]}\n',
        encoding="utf-8",
    )
    assert main(["eval-detect", str(corpus_path), "--predictions", str(predictions)]) == 1
    assert capsys.readouterr().err == (
        f"error: --predictions {predictions}: line 2: record 'd2' answer 0: "
        "prediction has 3 tags but the answer has 2 sentences\n"
    )


@pytest.mark.parametrize(
    ("last", "message"),
    [
        ('{"record_id": "d1", "tags": ["Complete", "Complete"]}',
         "line 1: record 'd2' answer 0: prediction has 3 tags but the answer has 2 sentences"),
        ('{"record_id": "d2", "tags": ["Complete", "Complete"]}',
         "line 3: duplicate key ('d2', 0) (first seen on line 1)"),
    ],
    ids=["mismatch-before-good-lines", "duplicate-after-mismatch"],
)
def test_eval_detect_reads_every_line_before_a_tag_count_mismatch(
    last, message, tmp_path, capsys
):
    text = "First sentence here. Second sentence here."
    corpus_path = tmp_path / "corpus.jsonl"
    records = [make_record(record_id=r, answers=[Answer(Source.MODEL, text)]) for r in ("d1", "d2")]
    save_corpus(records, corpus_path)
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text(
        '{"record_id": "d2", "tags": ["Complete", "Complete", "Incomplete"]}\n'
        '{"record_id": "d3", "tags": ["Complete"]}\n' + last + "\n",
        encoding="utf-8",
    )
    assert main(["eval-detect", str(corpus_path), "--predictions", str(predictions)]) == 1
    assert capsys.readouterr().err == f"error: --predictions {predictions}: {message}\n"


def test_eval_detect_accepts_feedback_output(golden_env, tmp_path):
    fb_out = tmp_path / "fb.jsonl"
    assert _run_feedback_cli(golden_env, fb_out) == 0
    out = tmp_path / "detect.jsonl"
    code = main(
        ["eval-detect", str(golden_env["corpus"]), "--predictions", str(fb_out),
         "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    # golden corpus has no annotations: every prediction is "different"
    assert summary["exact"] == 0
    assert summary["total_predicted"] == summary["different"]


def test_eval_correct_cli(tmp_path, capsys):
    baseline = tmp_path / "base.jsonl"
    refined = tmp_path / "ref.jsonl"
    baseline.write_text(
        "\n".join(
            json.dumps({"record_id": rid, "error_score": score})
            # a numeric string is a score: "0.5" flags b, so b is a miss (fn), not a tn
            for rid, score in [("a", 1.2), ("b", "0.5"), ("c", 0.0), ("d", 0.0)]
        ),
        encoding="utf-8",
    )
    refined.write_text(
        "\n".join(
            json.dumps({"record_id": rid, "error_score": score})
            for rid, score in [("a", 0.0), ("b", 0.7), ("c", 0.9), ("d", 0.0)]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "correct.jsonl"
    code = main(
        ["eval-correct", "--baseline", str(baseline), "--refined", str(refined),
         "--out", str(out)]
    )
    assert code == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    correction = next(r for r in rows if r["kind"] == "correction")
    assert correction["precision"] == 0.5
    assert correction["recall"] == 0.5
    assert "definitions" in correction
    assert (correction["tp"], correction["fp"], correction["fn"]) == (1, 1, 1)
    base_row = next(r for r in rows if r.get("which") == "baseline")
    assert base_row["pct_error_samples"] == 50.0
    assert base_row["mean_error_score"] == pytest.approx(0.425)


def test_eval_correct_warns_when_no_baseline_record_was_flagged(tmp_path, capsys):
    baseline, refined = tmp_path / "base.jsonl", tmp_path / "ref.jsonl"
    baseline.write_text(
        '{"record_id": "a", "error_score": 0}\n{"record_id": "b", "error_score": 0.0}\n',
        encoding="utf-8",
    )
    refined.write_text(
        '{"record_id": "a", "error_score": 0.5}\n{"record_id": "b", "error_score": 0}\n',
        encoding="utf-8",
    )
    assert main(["eval-correct", "--baseline", str(baseline), "--refined", str(refined)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3:5] == [
        "correction: precision 0.0000  recall 0.0000  f1 0.0000  (tp 0, fp 1, fn 0)",
        "warning: no baseline record was flagged; correction scores are degenerate",
    ]


_SCORES = '{"record_id": "a", "error_score": 1.0}\n{"record_id": "b", "error_score": 0.0}\n'


@pytest.mark.parametrize(
    ("baseline_text", "refined_text", "message"),
    [
        (_SCORES, _SCORES + "5\n", "--refined {refined}: line 3: expected a JSON object"),
        (
            _SCORES,
            '{"record_id": "a", "error_score": "high"}\n',
            "--refined {refined}: line 1: record 'a': error_score 'high' is not a number",
        ),
        (
            _SCORES + '{"record_id": "a", "error_score": 0.5}\n',
            _SCORES,
            "--baseline {baseline}: line 3: duplicate key 'a' (first seen on line 1)",
        ),
        ("\n", _SCORES, "--baseline {baseline}: no score records"),
        (_SCORES, "", "--refined {refined}: no score records"),
        (
            '{"record_id": "a", "error_score": NaN}\n',
            _SCORES,
            "--baseline {baseline}: line 1: record 'a': error_score must be a finite number "
            ">= 0, got nan",
        ),
        (
            _SCORES,
            '{"record_id": "b", "error_score": Infinity}\n',
            "--refined {refined}: line 1: record 'b': error_score must be a finite number "
            ">= 0, got inf",
        ),
        (
            _SCORES + '{"record_id": "c", "error_score": 1e999}\n',
            _SCORES,
            "--baseline {baseline}: line 3: record 'c': error_score must be a finite number "
            ">= 0, got inf",
        ),
        (
            _SCORES,
            '{"record_id": "a", "error_score": true}\n',
            "--refined {refined}: line 1: record 'a': error_score True is not a number",
        ),
        (
            _SCORES,
            '{"record_id": "a", "error_score": 1.0}\n{"record_id": "z", "error_score": 0.0}\n',
            "--baseline {baseline}: line 2: record 'b' has no line in --refined {refined}",
        ),
        (
            '{"record_id": "a", "error_score": 1.0}\n',
            _SCORES.replace('"b"', '"z"'),
            "--refined {refined}: line 2: record 'z' has no line in --baseline {baseline}",
        ),
    ],
    ids=["refined-not-an-object", "refined-not-a-number", "duplicate", "empty-baseline",
         "empty-refined", "baseline-nan", "refined-infinity", "baseline-overflow",
         "refined-bool", "baseline-id-not-refined", "refined-id-not-baseline"],
)
def test_eval_correct_errors_name_the_file(
    baseline_text, refined_text, message, tmp_path, capsys
):
    baseline, refined = tmp_path / "base.jsonl", tmp_path / "ref.jsonl"
    baseline.write_text(baseline_text, encoding="utf-8")
    refined.write_text(refined_text, encoding="utf-8")
    assert main(["eval-correct", "--baseline", str(baseline), "--refined", str(refined)]) == 1
    assert message.format(baseline=baseline, refined=refined) in capsys.readouterr().err


def test_selfcheck_cli(tmp_path, capsys):
    judgments = tmp_path / "judgments.jsonl"
    judgments.write_text(
        "\n".join(
            [
                json.dumps({"record_id": "r1", "sentence_index": 0, "verdicts": ["yes", "yes"]}),
                json.dumps({"record_id": "r1", "sentence_index": 1, "verdicts": ["no", "n/a"]}),
                json.dumps({"record_id": "r2", "sentence_index": 0, "verdicts": ["yes", "no", "n/a"]}),
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "selfcheck.jsonl"
    assert main(["selfcheck", "--judgments", str(judgments), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    r1 = next(r for r in rows if r["record_id"] == "r1")
    assert r1["per_sentence"] == [1.0, 0.25]
    assert r1["answer_support"] == 0.625
    assert r1["answer_inconsistency"] == 0.375


@pytest.mark.parametrize(
    "command, second_line, message",
    [
        ("selfcheck", "5", "--judgments {path}: line 2: expected a JSON object"),
        ("eval-correct", "5", "line 2: expected a JSON object"),
        (
            "selfcheck",
            '{"record_id": "r1", "sentence_index": 0, "verdicts": ["no"]}',
            "--judgments {path}: line 2: duplicate key ('r1', 0) (first seen on line 1)",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "sentence_index": "x", "verdicts": ["no"]}',
            "line 2: record 'r2': sentence_index 'x' is not an integer",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "sentence_index": 1.5, "verdicts": ["no"]}',
            "line 2: record 'r2': sentence_index 1.5 is not an integer",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "sentence_index": true, "verdicts": ["no"]}',
            "line 2: record 'r2': sentence_index True is not an integer",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "sentence_index": 3, "verdicts": ["yes", "maybe"]}',
            "line 2: record 'r2', sentence 3: unknown verdict 'maybe'",
        ),
        (
            "eval-correct",
            '{"record_id": "b"}',
            "line 2: record 'b': score line needs record_id and error_score",
        ),
        ("eval-correct", '{"error_score": 1}', "line 2: line has no record_id"),
        (
            "eval-correct",
            '{"record_id": "b", "error_score": "high"}',
            "line 2: record 'b': error_score 'high' is not a number",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "sentence_index": -1, "verdicts": ["no"]}',
            "line 2: record 'r2': sentence_index -1 is not an integer >= 0",
        ),
        ("selfcheck", '{"verdicts": ["no"]}', "--judgments {path}: line 2: line has no record_id"),
        (
            "selfcheck",
            '{"record_id": null, "verdicts": ["no"]}',
            "--judgments {path}: line 2: line has no record_id",
        ),
        (
            "selfcheck",
            '{"record_id": 2, "verdicts": ["no"]}',
            "--judgments {path}: line 2: record_id 2 is not a non-empty string",
        ),
        ("eval-correct", '{"record_id": null, "error_score": 1}', "line 2: line has no record_id"),
        (
            "eval-correct",
            '{"record_id": 2, "error_score": 1}',
            "line 2: record_id 2 is not a non-empty string",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "sentence_index": "1", "verdicts": ["no"]}',
            "--judgments {path}: line 2: record 'r2': sentence_index '1' is not an integer >= 0",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "verdicts": ["\\n"]}',
            "--judgments {path}: line 2: record 'r2', sentence 0: unknown verdict '\\n'\n",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "verdicts": "yes"}',
            "--judgments {path}: line 2: record 'r2': verdicts 'yes' is not a list",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "verdicts": []}',
            "line 2: record 'r2': verdicts [] is empty",
        ),
        (
            "selfcheck",
            '{"record_id": "r2", "verdicts": ["yes", 5]}',
            "--judgments {path}: line 2: record 'r2', sentence 0: verdicts[1] 5 is not a string\n",
        ),
    ],
    ids=[
        "selfcheck-not-an-object",
        "eval-correct-not-an-object",
        "selfcheck-duplicate-sentence",
        "selfcheck-bad-index",
        "selfcheck-fractional-index",
        "selfcheck-bool-index",
        "selfcheck-unknown-verdict",
        "eval-correct-no-score",
        "eval-correct-no-record-id",
        "eval-correct-score-not-a-number",
        "selfcheck-negative-index",
        "selfcheck-no-record-id",
        "selfcheck-null-record-id",
        "selfcheck-numeric-record-id",
        "eval-correct-null-record-id",
        "eval-correct-numeric-record-id",
        "selfcheck-numeric-string-index",
        "selfcheck-newline-verdict",
        "selfcheck-verdicts-not-a-list",
        "selfcheck-no-verdicts",
        "selfcheck-numeric-verdict",
    ],
)
def test_side_file_malformed_line_exits_1(command, second_line, message, tmp_path, capsys):
    path = tmp_path / "side.jsonl"
    first = {"record_id": "r1", "sentence_index": 0, "verdicts": ["yes"], "error_score": 0}
    path.write_text(json.dumps(first) + "\n" + second_line + "\n", encoding="utf-8")
    if command == "selfcheck":
        argv = ["selfcheck", "--judgments", str(path)]
    else:
        argv = ["eval-correct", "--baseline", str(path), "--refined", str(path)]
    assert main(argv) == 1
    assert message.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "eval-correct", "eval-detect", "selfcheck"])
def test_record_id_with_a_newline_keeps_the_error_on_one_line(
    command, small_corpus, tmp_path, capsys
):
    record_id = "a\nb"
    path = tmp_path / "input.jsonl"
    if command == "validate":
        obj = json.loads(small_corpus.read_text(encoding="utf-8").splitlines()[0])
        obj.update(id=record_id, annotations=[5])
        argv = ["validate", str(path)]
    elif command == "eval-correct":
        obj = {"record_id": record_id, "error_score": "high"}
        argv = ["eval-correct", "--baseline", str(path), "--refined", str(path)]
    elif command == "eval-detect":
        obj = {"record_id": record_id, "selected": {}}
        argv = ["eval-detect", str(small_corpus), "--predictions", str(path)]
    else:
        obj = {"record_id": record_id, "verdicts": []}
        argv = ["selfcheck", "--judgments", str(path)]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert repr(record_id) in line


def test_failed_record_id_with_a_newline_keeps_its_line_whole(small_corpus, tmp_path, capsys):
    obj = json.loads(small_corpus.read_text(encoding="utf-8").splitlines()[0])
    obj["id"] = "a\nb"
    corpus = tmp_path / "input.jsonl"
    corpus.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    (tmp_path / "fixtures").mkdir()
    out = tmp_path / "fb.jsonl"
    code = main(
        ["feedback", str(corpus), "--backend", f"scripted:{tmp_path / 'fixtures'}",
         "--answer", "0", "--out", str(out)]
    )
    assert code == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("failed: 'a\\nb'#0: no fixture for prompt digest ")
    assert out.read_bytes() == b""


def test_failed_record_is_on_stderr_as_it_fails(golden_env, tmp_path, capsys, monkeypatch):
    records = load_corpus(golden_env["corpus"])
    first, last = records[0].question, records[-1].question
    real = cli_module.run_feedback
    stderr_at_last = []

    def failing_first(question, *args, **kwargs):
        if question == first:
            raise RuntimeError("endpoint down")
        if question == last:
            stderr_at_last.append(capsys.readouterr().err)
        return real(question, *args, **kwargs)

    out = tmp_path / "fb.jsonl"
    argv = ["feedback", str(golden_env["corpus"]), "--backend",
            f"scripted:{golden_env['fixtures']}", "--answer", "0", "--out", str(out)]
    monkeypatch.setattr(cli_module, "run_feedback", failing_first)
    assert main(argv) == 3
    failed = f"failed: {records[0].id!r}#0: endpoint down\n"
    assert stderr_at_last == [failed]  # before the last record is computed
    assert capsys.readouterr().err == ""  # and the run's stderr holds it once


class _Stderr(list):
    """A text stream that keeps what is written to it, line by line, and sets
    ``seen`` once a line starts with ``prefix``."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix
        self.seen = threading.Event()

    def write(self, text: str) -> None:
        self.append(text)
        if text.startswith(self.prefix):
            self.seen.set()

    def flush(self) -> None:
        pass


def test_failed_record_is_on_stderr_while_an_earlier_record_is_held(golden_env, tmp_path):
    prompts = _feedback_prompts(golden_env)
    err = _Stderr("failed: 'g03'#0: ")
    out, codes = tmp_path / "fb.jsonl", []
    stub = _fixture_stub(golden_env["fixtures"], tmp_path, hold=prompts["g02"], reject=prompts["g03"])
    with stub as (server, config), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        argv = ["feedback", str(golden_env["corpus"]), "--config", str(config),
                "--workers", "2", "--out", str(out)]
        run = threading.Thread(target=lambda: codes.append(main(argv)))
        run.start()
        try:
            assert server.held.wait(30)
            # g03 fails while g02 waits on the stub, and says so at once
            failed_while_held = err.seen.wait(10)
        finally:
            server.release.set()
            run.join(30)
    assert failed_while_held
    assert codes == [3]


@pytest.mark.parametrize("error", [RuntimeError, MemoryError])
def test_failed_record_whose_error_has_no_message_names_its_class(
    error, small_corpus, tmp_path, capsys, monkeypatch
):
    def failing(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli_module, "run_feedback", failing)
    out = tmp_path / "fb.jsonl"
    argv = ["feedback", str(small_corpus), "--backend", f"scripted:{tmp_path}",
            "--answer", "0", "--out", str(out)]
    assert main(argv) == 3
    name = error.__name__
    assert capsys.readouterr() == (
        f"0 results written to {out}, 2 failed\n",
        f"failed: 'q1'#0: {name}\nfailed: 'q2'#0: {name}\n",
    )


# ---------------------------------------------------------------------------
# output files


class _FullDisk:
    """A file opened for writing whose every write fails as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        raise OSError(28, "No space left on device")

    writelines = write


def _one_shot_runs(corpus: Path, tmp_path: Path, out: Path) -> dict[str, list[str]]:
    scores, judgments = tmp_path / "scores.jsonl", tmp_path / "judgments.jsonl"
    scores.write_text(_SCORES, encoding="utf-8")
    judgments.write_text('{"record_id": "r1", "verdicts": ["yes"]}\n', encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    return {
        "stats": ["stats", str(corpus), "--out", str(out)],
        "agreement": ["agreement", str(corpus), "--out", str(out)],
        "score-report": ["score", str(corpus), "--report", str(out)],
        "eval-detect": ["eval-detect", str(corpus), "--predictions", str(predictions),
                        "--out", str(out)],
        "eval-correct": ["eval-correct", "--baseline", str(scores), "--refined", str(scores),
                         "--out", str(out)],
        "selfcheck": ["selfcheck", "--judgments", str(judgments), "--out", str(out)],
    }


@pytest.mark.parametrize(
    "command", ["stats", "agreement", "score-report", "eval-detect", "eval-correct", "selfcheck"]
)
def test_one_shot_output_lands_whole_or_not_at_all(
    command, small_corpus, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "out.jsonl"
    argv = _one_shot_runs(small_corpus, tmp_path, out)[command]
    assert main(argv) == 0
    written = out.read_bytes()
    assert written
    out.write_bytes(b"previous\n")

    def full_disk_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return _FullDisk(handle) if "w" in mode else handle

    monkeypatch.setattr(cli_module, "open", full_disk_open, raising=False)
    capsys.readouterr()
    assert main(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(out.name)) == [out.name]

    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_bytes() == written
    assert not Path(f"{out}.tmp").exists()


@pytest.mark.parametrize("kept", [0, 10], ids=["computed", "resume-kept"])
def test_batch_run_starts_no_record_after_a_failed_write(kept, tmp_path, monkeypatch, capsys):
    corpus, config, out = tmp_path / "corpus.jsonl", tmp_path / "cfg", tmp_path / "out.jsonl"
    save_corpus([make_record(record_id=f"r{i:03}") for i in range(200)], corpus)
    config.write_text(  # four connection slots: 2 x 4 - 1 runner threads; no socket is opened
        "feedback.kind = http\nfeedback.endpoint_url = http://127.0.0.1:9/v1\n"
        "feedback.model_name = stub\nfeedback.temperature = 0.7\nfeedback.max_in_flight = 4\n",
        encoding="utf-8",
    )
    # the first targets' lines, which a resumed run writes before any it computes
    out.write_text(
        "".join(
            json.dumps({"record_id": f"r{i // 2:03}", "answer_index": i % 2, "n_sampled": 20}) + "\n"
            for i in range(kept)
        ),
        encoding="utf-8",
    )
    calls, writes = [], []

    class Feedback:
        def to_dict(self, audit):
            return {"n_sampled": 20}

    def slow_feedback(config, opened, record, idx):
        calls.append((record.id, idx))
        time.sleep(0.05)
        return Feedback()

    class FourthWriteFails:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            writes.append(text)
            if len(writes) == 4:
                raise OSError(28, "No space left on device")
            self.handle.write(text)

        def flush(self):
            self.handle.flush()

    def partial_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return FourthWriteFails(handle) if mode == "w" and str(path).endswith(".partial") else handle

    monkeypatch.setattr(cli_module, "_feedback", slow_feedback)
    monkeypatch.setattr(cli_module, "open", partial_open, raising=False)
    resume = ["--resume"] if kept else []
    capsys.readouterr()
    assert main(["feedback", str(corpus), "--config", str(config), *resume, "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    # the records already running finish; none still queued starts
    assert len(writes) == 4
    threads = 2 * 4 - 1
    assert len(calls) <= len(writes) + threads


def _files(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _assert_refused(template: list[str], output: str, other: str, paths: dict, capsys) -> None:
    """main exits 2 before any work, naming both flags, and no file under tmp changes.

    The output's own path names the file, or one of its side files (PATH.tmp,
    OUT.partial) does, as "--out PATH writes PATH.tmp, the same file as ..."."""
    before = _files(paths["tmp"])
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in template]) == 2
    out, err = capsys.readouterr()
    same = rf"(?:is|writes \S+,) the same file as {re.escape(other)} \S+; "
    pattern = rf"error: {re.escape(output)} \S+ {same}"
    assert re.match(pattern, err), err
    assert err.count("\n") == 1 and out == ""
    assert _files(paths["tmp"]) == before


@pytest.mark.parametrize(
    ("template", "output", "other"),
    [
        (["stats", "{corpus}", "--out", "{corpus}"], "--out", "corpus"),
        (["stats", "{corpus}", "--out", "{tmp}/./corpus.jsonl"], "--out", "corpus"),
        (["score", "{corpus}", "--out", "{corpus}"], "--out", "corpus"),
        (["score", "{corpus}", "--out", "{tmp}/x.jsonl", "--report", "{corpus}"], "--report", "corpus"),
        (["score", "{corpus}", "--out", "{tmp}/x.jsonl", "--report", "{tmp}/x.jsonl"], "--report", "--out"),
        (["agreement", "{corpus}", "--out", "{link}"], "--out", "corpus"),
        (["score", "{side}", "--out", "{tmp}/side.jsonl"], "--out", "corpus"),
        (["score", "{side}", "--out", "{tmp}/x.jsonl", "--report", "{tmp}/side.jsonl"],
         "--report", "corpus"),
        # --report x.jsonl streams to x.jsonl.tmp, which would truncate the finished scorecards
        (["score", "{corpus}", "--out", "{tmp}/x.jsonl.tmp", "--report", "{tmp}/x.jsonl"],
         "--report", "--out"),
    ],
    ids=["stats", "stats-dotted", "score-out", "score-report", "score-out-report", "agreement-hard-link",
         "score-out-tmp", "score-report-tmp", "score-report-tmp-is-out"],
)
def test_analysis_output_that_names_an_input_exits_2(
    template, output, other, small_corpus, tmp_path, capsys
):
    link = tmp_path / "link.jsonl"
    link.hardlink_to(small_corpus)
    side = tmp_path / "side.jsonl.tmp"  # the file _writing streams --out side.jsonl to
    side.write_bytes(small_corpus.read_bytes())
    paths = {"tmp": tmp_path, "corpus": small_corpus, "link": link, "side": side}
    _assert_refused(template, output, other, paths, capsys)


@pytest.mark.parametrize(
    ("template", "output", "other"),
    [
        (["feedback", "{corpus}", "--backend", "{backend}", "--out", "{corpus}"], "--out", "corpus"),
        (["refine", "{corpus}", "--mode", "eir", "--backend", "{backend}", "--out", "{corpus}"],
         "--out", "corpus"),
        (["refine", "{corpus}", "--mode", "eir", "--backend", "{backend}", "--resume",
          "--out", "{corpus}"], "--out", "corpus"),
        (["feedback", "{corpus}", "--config", "{config}", "--backend", "{backend}",
          "--out", "{config}"], "--out", "--config"),
        (["feedback", "{tmp}/c.jsonl.partial", "--backend", "{backend}", "--out", "{tmp}/c.jsonl"],
         "--out", "corpus"),
        (["refine", "{tmp}/c.jsonl.partial", "--mode", "eir", "--backend", "{backend}", "--resume",
          "--out", "{tmp}/c.jsonl"], "--out", "corpus"),
        (["feedback", "{tmp}/c.jsonl.tmp", "--backend", "{backend}", "--resume",
          "--out", "{tmp}/c.jsonl"], "--out", "corpus"),
        (["feedback", "{corpus}", "--config", "{tmp}/cfg.partial", "--backend", "{backend}",
          "--out", "{tmp}/cfg"], "--out", "--config"),
    ],
    ids=["feedback", "refine-eir", "refine-eir-resume", "feedback-config", "feedback-partial",
         "refine-eir-resume-partial", "feedback-resume-tmp", "feedback-config-partial"],
)
def test_batch_output_that_names_an_input_exits_2(
    template, output, other, golden_env, tmp_path, capsys
):
    corpus, config = tmp_path / "corpus.jsonl", tmp_path / "cfg"
    corpus.write_bytes(Path(golden_env["corpus"]).read_bytes())
    config.write_text("n_samples = 20\n", encoding="utf-8")
    # inputs named like the side files of --out c.jsonl and --out cfg
    for side in ("c.jsonl.partial", "c.jsonl.tmp"):
        (tmp_path / side).write_bytes(corpus.read_bytes())
    (tmp_path / "cfg.partial").write_bytes(config.read_bytes())
    paths = {
        "tmp": tmp_path, "corpus": corpus, "config": config,
        "backend": f"scripted:{golden_env['fixtures']}",
    }
    _assert_refused(template, output, other, paths, capsys)


@pytest.mark.parametrize(
    ("template", "output", "other"),
    [
        (["eval-detect", "{corpus}", "--predictions", "{predictions}", "--out", "{predictions}"],
         "--out", "--predictions"),
        (["eval-detect", "{corpus}", "--predictions", "{predictions}", "--out", "{corpus}"],
         "--out", "corpus"),
        (["eval-correct", "--baseline", "{baseline}", "--refined", "{refined}", "--out", "{baseline}"],
         "--out", "--baseline"),
        (["eval-correct", "--baseline", "{baseline}", "--refined", "{refined}", "--out", "{refined}"],
         "--out", "--refined"),
        (["selfcheck", "--judgments", "{judgments}", "--out", "{judgments}"], "--out", "--judgments"),
        (["eval-correct", "--baseline", "{baseline}", "--refined", "{refined}",
          "--out", "{tmp}/refined"], "--out", "--refined"),
    ],
    ids=["eval-detect-predictions", "eval-detect-corpus", "eval-correct-baseline",
         "eval-correct-refined", "selfcheck", "eval-correct-refined-tmp"],
)
def test_evaluation_output_that_names_an_input_exits_2(
    template, output, other, small_corpus, tmp_path, capsys
):
    paths = {"tmp": tmp_path, "corpus": small_corpus}
    for name, text in [
        ("predictions", ""),
        ("baseline", _SCORES),
        ("refined", _SCORES),
        ("judgments", '{"record_id": "r1", "verdicts": ["yes"]}\n'),
    ]:
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text, encoding="utf-8")
    paths["refined"] = paths["refined"].rename(tmp_path / "refined.tmp")  # --out refined's side file
    _assert_refused(template, output, other, paths, capsys)


# ---------------------------------------------------------------------------
# exit codes and errors


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_missing_file_exits_1(capsys):
    assert main(["validate", "/nonexistent/corpus.jsonl"]) == 1


def test_bad_backend_flag_exits_1(small_corpus, tmp_path, capsys):
    code = main(
        ["feedback", str(small_corpus), "--backend", "http:nope",
         "--out", str(tmp_path / "x.jsonl")]
    )
    assert code == 1
    assert "scripted:DIR" in capsys.readouterr().err


def test_feedback_without_backend_exits_1(small_corpus, tmp_path, capsys):
    code = main(["feedback", str(small_corpus), "--out", str(tmp_path / "x.jsonl")])
    assert code == 1
    assert "backend" in capsys.readouterr().err
