"""Totality of the reader of the files keyed by record.

One node changed in one line of a valid ``--predictions``, ``--baseline``,
``--judgments`` or resumed ``--out`` file either still reads, or the
command exits 1 (2 for a kept line of another ``--resume`` run) with one
error line that names the flag (under ``--resume``, the file), the path and
the changed line. No traceback and no other exit code. A line cut at a byte,
or given a byte that is not UTF-8, always exits 1 that way; and a file, the
corpus included, reads the same with CRLF or lone-CR line ends as with LF.
"""
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import quiet_main
from json_mutation import one_node_changed
from lfqa_eval.cli import main

_SCORES = [
    {"record_id": "a", "error_score": 1.0},
    {"record_id": "b", "error_score": "0.5"},
    {"record_id": "c", "error_score": 0},
]
_JUDGMENTS = [
    {"record_id": "r1", "sentence_index": 0, "verdicts": ["yes", "no"]},
    {"record_id": "r1", "sentence_index": 1, "verdicts": ["n/a"]},
    {"record_id": "r2", "verdicts": ["yes"]},
]


@pytest.fixture(scope="module")
def keyed_files(golden_env, tmp_path_factory) -> dict:
    """flag -> (a valid file's lines, argv for a path to such a file, a path to use)."""
    root = tmp_path_factory.mktemp("keyed-fuzz")
    corpus, backend = str(golden_env["corpus"]), f"scripted:{golden_env['fixtures']}"
    feedback_out = root / "feedback.jsonl"
    code, err = quiet_main(["feedback", corpus, "--backend", backend, "--out", str(feedback_out)])
    assert (code, err) == (0, "")
    feedback = [json.loads(line) for line in feedback_out.read_text(encoding="utf-8").splitlines()]
    predictions = [*feedback[:3], {"record_id": "g05", "tags": ["Complete", "Incomplete"]}]
    records = [json.loads(line) for line in golden_env["corpus"].read_text(encoding="utf-8").splitlines()]
    return {
        "corpus": (records, lambda path: ["score", path], root / "corpus.jsonl"),
        "--predictions": (
            predictions,
            lambda path: ["eval-detect", corpus, "--predictions", path],
            root / "predictions.jsonl",
        ),
        # the one file is both sides, so a renamed record still has its pair
        "--baseline": (
            _SCORES,
            lambda path: ["eval-correct", "--baseline", path, "--refined", path],
            root / "scores.jsonl",
        ),
        "--judgments": (
            _JUDGMENTS,
            lambda path: ["selfcheck", "--judgments", path],
            root / "judgments.jsonl",
        ),
        "--resume": (
            feedback[:4],
            lambda path: ["feedback", corpus, "--backend", backend, "--out", path, "--resume"],
            root / "resumed.jsonl",
        ),
    }


@pytest.mark.parametrize("flag", ["--predictions", "--baseline", "--judgments", "--resume"])
@given(data=st.data())
def test_one_changed_node_reads_or_is_named_by_flag_path_and_line(flag, data, keyed_files):
    lines, argv, path = keyed_files[flag]
    k = data.draw(st.integers(0, len(lines) - 1), label="changed line index")
    changed = [*lines]
    changed[k] = data.draw(one_node_changed(lines[k]), label="changed line")
    path.write_text("".join(json.dumps(line) + "\n" for line in changed), encoding="utf-8")

    code, err = quiet_main(argv(str(path)))

    if code == 0:
        assert err == ""
        return
    if code == 2:
        assert flag == "--resume" and "--resume keeps only lines of the same run" in err, err
    else:
        assert code == 1, err
    name = str(path) if flag == "--resume" else f"{flag} {path}"
    assert err.startswith(f"error: {name}: line ") and err.count("\n") == 1, err
    assert re.search(rf"\bline {k + 1}\b", err), err


@pytest.mark.parametrize("flag", ["--predictions", "--baseline", "--judgments", "--resume"])
@given(data=st.data())
def test_a_line_cut_or_not_utf8_is_named_by_flag_path_and_line(flag, data, keyed_files):
    lines, argv, path = keyed_files[flag]
    # ASCII lines, so a cut is never inside a character: the lone lead byte b"\xc3" is that case
    encoded = [json.dumps(line).encode("ascii") + b"\n" for line in lines]
    k = data.draw(st.integers(0, len(lines) - 1), label="changed line index")
    line = encoded[k]
    if data.draw(st.booleans(), label="cut"):
        # short of the closing brace, so never a whole object; the newline stays
        at = data.draw(st.integers(1, len(line) - 2), label="bytes kept")
        encoded[k], cause = line[:at] + b"\n", "malformed JSON: "
    else:
        at = data.draw(st.integers(0, len(line) - 1), label="insertion offset")
        bad = data.draw(st.sampled_from([b"\x80", b"\xc3", b"\xff", b"\xed\xa0\x80"]), label="bytes")
        encoded[k], cause = line[:at] + bad + line[at:], "not UTF-8\n"
    path.write_bytes(b"".join(encoded))

    code, err = quiet_main(argv(str(path)))

    name = str(path) if flag == "--resume" else f"{flag} {path}"
    assert code == 1 and err.startswith(f"error: {name}: line {k + 1}: {cause}"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("flag", ["corpus", "--predictions", "--baseline", "--judgments"])
def test_line_ends_read_the_same_as_lf(flag, newline, keyed_files, capsys):
    lines, argv, path = keyed_files[flag]
    results = []
    for end in ("\n", newline):
        path.write_bytes("".join(json.dumps(line) + end for line in lines).encode("utf-8"))
        results.append((main(argv(str(path))), *capsys.readouterr()))
    assert results[0][0] == 0 and results[1] == results[0], results
