"""The analysis subcommands (stats, score, agreement, eval-detect) on whole corpora.

Pins what they print and write, byte for byte, what a bad corpus line does
to them, and that their memory does not grow with the corpus.
"""
import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import build_golden_environment
from lfqa_eval.cli import main
from lfqa_eval.corpus import record_from_dict, save_corpus
from lfqa_eval.segment import segment_sentences
from test_scale import _synthetic_corpus


def _read_records(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [record_from_dict(json.loads(line)) for line in handle]


def _write_predictions(records, path: Path) -> None:
    """Tags for four answers in five, a ghost id first; the same on every Python."""
    rng = random.Random(1)
    lines = [{"record_id": "ghost", "answer_index": 1, "tags": ["Complete"]}]
    for record in records:
        for idx, answer in enumerate(record.answers):
            if rng.random() < 0.2:
                continue
            tags = [
                "Incomplete" if rng.random() < 0.3 else "Complete"
                for _ in segment_sentences(answer.text)
            ]
            lines.append({"record_id": record.id, "answer_index": idx, "tags": tags})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def _analysis_argv(corpus: Path, predictions: Path, out: Path) -> dict[str, list[str]]:
    return {
        "stats": ["stats", str(corpus), "--out", str(out / "stats.jsonl")],
        "score": ["score", str(corpus), "--out", str(out / "cards.jsonl"),
                  "--report", str(out / "report.jsonl")],
        "agreement": ["agreement", str(corpus), "--out", str(out / "agreement.jsonl")],
        "eval-detect": ["eval-detect", str(corpus), "--predictions", str(predictions),
                        "--out", str(out / "detect.jsonl")],
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def analysis_digests(root: Path) -> dict[str, str]:
    """sha256 of every stdout and output file of the four subcommands on two corpora.

    The corpora are the golden scripted corpus and the test_scale synthetic one.
    Needs no pytest at run time, so any interpreter can print its own set.
    """
    corpora = {
        "golden": build_golden_environment(root / "golden")["corpus"],
        "scale": root / "scale.jsonl",
    }
    save_corpus(_synthetic_corpus(random.Random(698)), corpora["scale"])
    digests = {}
    for name, corpus in corpora.items():
        out = root / f"{name}-out"
        out.mkdir()
        predictions = root / f"{name}-predictions.jsonl"
        _write_predictions(_read_records(corpus), predictions)
        for command, argv in _analysis_argv(corpus, predictions, out).items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, argv
            digests[f"{name} {command} stdout"] = _sha(stdout.getvalue().encode("utf-8"))
            for arg, path in zip(argv, argv[1:]):
                if arg in ("--out", "--report"):
                    digests[f"{name} {command} {arg}"] = _sha(Path(path).read_bytes())
    return digests


# From Python 3.12 on, sum() of floats is compensated, so some scores, means and
# percentages differ in their last bits. Print this interpreter's set with:
#   PYTHONPATH=src:tests python -c "import pathlib, tempfile, test_analysis_streaming as t;
#   print(t.analysis_digests(pathlib.Path(tempfile.mkdtemp())))"
DIGESTS_BEFORE_3_12 = {
    "golden stats stdout":
        "42dece0045a32b980e0dc82a64dd9049b23a12e7eed013c727fea09dda36716c",
    "golden stats --out":
        "eebbbe9e5c962ab3899cad0ebb8519bf8bf9425381168a13825111ad3c3d507e",
    "golden score stdout":
        "c6ac4c2fd741d6576536102c35a5da8f0e6da98b47bcd0c9ad60b83c2559801c",
    "golden score --out":
        "254e0f2a7c27b6f24077acb09b9e7d7a74ef258103c9ee6ff20db4a49b65ac45",
    "golden score --report":
        "725fcbcbe628303e6cbc45b91981e3239aacdb5c6224382fe04fc4374707a534",
    "golden agreement stdout":
        "5178e39c75dc6ce1f85652c3b2fa7423d09eda084d1690999e6f326a17ed63ed",
    "golden agreement --out":
        "016447c28f80db28c563ee3f5e50606760b2d8952774f374f410ccc92591c294",
    "golden eval-detect stdout":
        "587fdbf0aba1ae1a40c71b75848602a3a4fd78658adcd64e41d11f2a60e184b6",
    "golden eval-detect --out":
        "3ffb673e715a0f00eaff7cc650202e8ce8281d208eadf174229ff22d57455733",
    "scale stats stdout":
        "07a859f92f468c39e41538b5dd1525d073fc1bfdbebd8e5014230207b6617181",
    "scale stats --out":
        "69194df91b9e128ea8673c840478639812d594e11ecbe7f5e8e829406380b9ab",
    "scale score stdout":
        "712bf2bcc2dd60c0618640e478a5e02a6a39316651f040738c37e0c1fefc4f4d",
    "scale score --out":
        "8922e666fd6e228e7a61824e0c6e30f914b9672ab0791bb5cf9ee41daa521b5d",
    "scale score --report":
        "9466735ea3dfc40ffdf1371631cd7f75106b4269fa41abfeeefa79a4163e322c",
    "scale agreement stdout":
        "4bd247dea94f0ea22382a469627939e8c50172873fef11f81e963b47abac0fa4",
    "scale agreement --out":
        "83093e910bcfd3193ed6f1f15483b720f74531f16258a60c847debd2d1000a69",
    "scale eval-detect stdout":
        "0e963fd05ad5a27fae6103a5b2c3eaeb6c0e98092077d335b1a216b85b8cf2aa",
    "scale eval-detect --out":
        "87f7dce97bb91a7a578d3da96c4f2de740786720ecac33f30901f5cc29efb73d",
}
DIGESTS_FROM_3_12 = {
    **DIGESTS_BEFORE_3_12,
    "scale stats --out":
        "7250f52864691431affeb0c6dec91846b5ab0e5ee0a3fa0d5663483651265514",
    "scale score --out":
        "588b1377983a0ef397e993f05edca844040f5b6058092d3b24288813eaf84c5d",
    "scale score --report":
        "5f7d3ce8b326c00c44df0debe08d666c50d81e2c24715bf465c85c8a5099f9d4",
}


def test_analysis_outputs_are_byte_identical(tmp_path):
    expected = DIGESTS_FROM_3_12 if sys.version_info >= (3, 12) else DIGESTS_BEFORE_3_12
    assert analysis_digests(tmp_path) == expected


# ---------------------------------------------------------------------------
# A bad corpus line


_GOOD = [
    {"id": f"r{i}", "domain": "law", "question": "Why?",
     "answers": [{"source": "human", "text": "It is so. It was so."},
                 {"source": "model", "text": "Because it is."}],
     "annotations": [{"aspect": "completeness", "target": {"answer": 0},
                      "span": {"start": 0, "end": 9}}],
     "preferences": [{"annotator": "a1", "choice": 1}, {"annotator": "a2", "choice": 0}]}
    for i in range(3)
]

BAD_LINES = {
    "malformed-json": ("not json", "line 4: malformed JSON: Expecting value"),
    "not-an-object": ("[1, 2]", "line 4: expected a JSON object"),
    "not-utf8": ('{"id": "caf\udcc3"}', "line 4: not UTF-8"),  # written as the byte 0xc3
    "duplicate-id": (json.dumps(_GOOD[1]), "line 4: duplicate id 'r1' (first seen on line 2)"),
    "invalid-record": (
        json.dumps({**_GOOD[0], "id": "bad", "preferences": [{"choice": 5}]}),
        "line 4: record 'bad': preferences[0]: choice 5 out of range",
    ),
}


def _bad_corpus(tmp_path: Path, bad: str) -> Path:
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(record) for record in _GOOD] + [bad, json.dumps({**_GOOD[0], "id": "r9"})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    return path


@pytest.mark.parametrize("command", ["stats", "score", "agreement", "eval-detect"])
@pytest.mark.parametrize("bad", list(BAD_LINES), ids=list(BAD_LINES))
def test_bad_corpus_line_exits_1_and_leaves_outputs(command, bad, tmp_path, capsys):
    line, message = BAD_LINES[bad]
    corpus = _bad_corpus(tmp_path, line)
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text('{"record_id": "r0", "tags": ["Complete", "Complete"]}\n', encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    argv = _analysis_argv(corpus, predictions, out)[command]
    outputs = [Path(path) for arg, path in zip(argv, argv[1:]) if arg in ("--out", "--report")]
    for path in outputs:
        path.write_bytes(b"previous\n")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    for path in outputs:
        assert path.read_bytes() == b"previous\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in outputs)


# ---------------------------------------------------------------------------
# eval-detect: which error wins, and the skipped list


@pytest.mark.parametrize(
    "predictions",
    [
        "not json\n",
        '{"record_id": "r0", "tags": ["Complete"]}\n',
        '{"record_id": "r0", "answer_index": 7, "tags": ["Complete"]}\n',
        None,
    ],
    ids=["malformed", "tag-count", "index-out-of-range", "missing-file"],
)
def test_eval_detect_corpus_error_beats_predictions_error(predictions, tmp_path, capsys):
    corpus = _bad_corpus(tmp_path, "not json")
    path = tmp_path / "pred.jsonl"
    if predictions is not None:
        path.write_text(predictions, encoding="utf-8")
    assert main(["eval-detect", str(corpus), "--predictions", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 4: malformed JSON: Expecting value\n"


def test_eval_detect_malformed_line_after_tag_count_mismatch_is_reported(tmp_path, capsys):
    corpus = _bad_corpus(tmp_path, json.dumps({**_GOOD[0], "id": "r3"}))
    path = tmp_path / "pred.jsonl"
    path.write_text('{"record_id": "r0", "tags": ["Complete"]}\n[1]\n', encoding="utf-8")
    assert main(["eval-detect", str(corpus), "--predictions", str(path)]) == 1
    assert capsys.readouterr().err == f"error: --predictions {path}: line 2: expected a JSON object\n"


def test_eval_detect_skipped_keeps_prediction_order(tmp_path, capsys):
    corpus = _bad_corpus(tmp_path, json.dumps({**_GOOD[0], "id": "r3"}))
    rows = [("zz", 0), ("r1", 1), ("aa", 1), ("zz", 1), ("mm", 0), ("r0", 0)]
    path = tmp_path / "pred.jsonl"
    path.write_text(
        "".join(
            json.dumps({"record_id": rid, "answer_index": idx, "tags": ["Complete"] * (2 - idx)})
            + "\n"
            for rid, idx in rows
        ),
        encoding="utf-8",
    )
    out = tmp_path / "detect.jsonl"
    assert main(["eval-detect", str(corpus), "--predictions", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["skipped"] == ["zz", "aa", "zz", "mm"]
    assert report["n_records"] == 2


# ---------------------------------------------------------------------------
# Memory does not grow with the corpus


def _scaled_corpus(path: Path, copies: int) -> None:
    """Every fourteenth test_scale record, the set repeated under new ids."""
    base = _synthetic_corpus(random.Random(698))[::14]
    save_corpus(
        [replace(record, id=f"{record.id}-{k}") for k in range(copies) for record in base], path
    )


def _traced_peak(argv: list[str]) -> int:
    # tracemalloc does not see an object taken from one of the interpreter's free
    # lists, which earlier code in the process fills; a full collection empties
    # them and resets the collector's counts, so each peak counts every object
    # the command allocates, whatever ran before it
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analysis_memory_does_not_grow_with_the_corpus(tmp_path):
    peaks = {}
    for copies in (1, 4):
        corpus = tmp_path / f"corpus-{copies}.jsonl"
        _scaled_corpus(corpus, copies)
        predictions = tmp_path / f"pred-{copies}.jsonl"
        _write_predictions(_read_records(corpus), predictions)
        out = tmp_path / f"out-{copies}"
        out.mkdir()
        for command, argv in _analysis_argv(corpus, predictions, out).items():
            peaks[command, copies] = _traced_peak(argv)
    for command in ("stats", "score", "agreement"):
        assert peaks[command, 4] < 1.5 * peaks[command, 1], (command, peaks)
