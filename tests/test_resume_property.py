"""Resume property: every interrupted state resumes to the uninterrupted bytes.

Over the golden corpus with a human answer put before each model answer (it
repeats the model answer, so its prompts have fixtures), on the scripted
backend: for a drawn command, ``--audit`` setting and ``--answer`` selector,
any subset of the uninterrupted lines kept in ``--out``, and any subset kept
in ``OUT.partial`` in any order (lines reach it as their records finish),
whose last line may be cut at any byte,
``--resume`` writes the uninterrupted bytes, computes exactly the targets
that neither file keeps whole, and leaves no ``OUT.partial``. A ``--resume``
that fails at any line it writes, as it folds the kept lines onto ``--out``
or after, loses none of them: a second ``--resume`` writes the uninterrupted
bytes and computes only what no earlier run wrote.
"""
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quiet_main
from lfqa_eval import cli as cli_module
from lfqa_eval.corpus import load_corpus, save_corpus
from lfqa_eval.models import Answer, Source

_COMMANDS = {"feedback": ["feedback"], "refine-eir": ["refine", "--mode", "eir"]}
_SELECTORS = ["all", "human", "model"]


@pytest.fixture(scope="module")
def resume_env(golden_env, tmp_path_factory) -> dict:
    """argv(command, audit, answer, out), the uninterrupted lines of each run, and record ids by question."""
    root = tmp_path_factory.mktemp("resume-property")
    records = load_corpus(golden_env["corpus"])
    for record in records:
        record.answers.insert(0, Answer(Source.HUMAN, record.answers[0].text))
    corpus = root / "corpus.jsonl"
    save_corpus(records, corpus)
    backend = f"scripted:{golden_env['fixtures']}"

    def argv(command: str, audit: bool, answer: str, out: Path) -> list[str]:
        audited = ["--audit"] if audit else []
        return [*_COMMANDS[command], str(corpus), "--backend", backend, "--answer", answer,
                *audited, "--out", str(out)]

    clean = {}
    for command in _COMMANDS:
        for audit in (False, True):
            for answer in _SELECTORS:
                out = root / f"clean-{command}-{audit}-{answer}.jsonl"
                assert quiet_main(argv(command, audit, answer, out)) == (0, "")
                clean[command, audit, answer] = out.read_bytes().splitlines(keepends=True)
    ids = {record.question: record.id for record in records}
    return {"argv": argv, "clean": clean, "ids": ids, "out": root / "resumed.jsonl"}


def _interrupted_state(data, resume_env) -> tuple[list[str], list[bytes], set[int], bool]:
    """Draw a run and the files an interrupted run of it left: (the --resume argv,
    the uninterrupted lines, the indices of the lines kept whole, whether
    OUT.partial's last line is torn)."""
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    audit = data.draw(st.booleans(), label="--audit")
    answer = data.draw(st.sampled_from(_SELECTORS), label="--answer")
    clean = resume_env["clean"][command, audit, answer]
    indices = st.sets(st.integers(0, len(clean) - 1))
    in_out = sorted(data.draw(indices, label="lines kept in --out"))
    in_partial = sorted(data.draw(indices, label="lines kept in OUT.partial"))
    in_partial = data.draw(st.permutations(in_partial), label="their order in OUT.partial")

    out = resume_env["out"]
    partial = Path(f"{out}.partial")
    for path in (out, partial):
        path.unlink(missing_ok=True)
    if in_out:
        out.write_bytes(b"".join(clean[i] for i in in_out))
    whole = set(in_partial)  # the lines OUT.partial keeps whole
    torn = False
    if in_partial:
        written = b"".join(clean[i] for i in in_partial)
        last = clean[in_partial[-1]]
        if data.draw(st.booleans(), label="cut the last line"):
            # every byte but the newline keeps a whole line; none removes it
            cut = data.draw(st.integers(0, len(last) - 1), label="bytes of the last line kept")
            written = written[: len(written) - len(last) + cut]
            if cut < len(last) - 1:
                whole.discard(in_partial[-1])
                torn = cut > 0
        partial.write_bytes(written)
    argv = [*resume_env["argv"](command, audit, answer, out), "--resume"]
    return argv, clean, whole.union(in_out), torn


def _resume(resume_env, argv: list[str], disk=open) -> tuple[int, str, list[str]]:
    """main(argv)'s exit code and stderr, and the record ids it computed in
    order, with disk as cli's open."""
    computed = []
    real = cli_module.run_feedback

    def recording(question, *args, **kwargs):
        computed.append(resume_env["ids"][question])
        return real(question, *args, **kwargs)

    with mock.patch.object(cli_module, "run_feedback", recording), \
            mock.patch.object(cli_module, "open", disk, create=True):
        code, err = quiet_main(argv)
    return code, err, computed


def _ids(lines) -> list[str]:
    return [json.loads(line)["record_id"] for line in lines]


@settings(deadline=None)
@given(data=st.data())
def test_resume_writes_the_uninterrupted_bytes_and_computes_only_what_is_missing(data, resume_env):
    argv, clean, kept, torn = _interrupted_state(data, resume_env)
    code, err, computed = _resume(resume_env, argv)

    out = resume_env["out"]
    assert code == 0, err
    assert out.read_bytes() == b"".join(clean)
    # in target order: the scripted backend runs records inline
    assert computed == _ids(line for i, line in enumerate(clean) if i not in kept)
    assert not Path(f"{out}.partial").exists()
    assert ("torn last line dropped" in err) == torn, err


class _FullDiskAt:
    """cli's open, whose files opened for writing take k lines in all; writing
    one more raises OSError, as a full disk would."""

    def __init__(self, k: int):
        self.left = k

    def __call__(self, path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        return _Lines(handle, self) if "w" in mode else handle


class _Lines:
    def __init__(self, handle, disk: _FullDiskAt):
        self._handle = handle
        self._disk = disk

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):  # flush, close
        return getattr(self._handle, name)

    def write(self, line: str) -> None:
        if self._disk.left == 0:
            raise OSError(28, "No space left on device")
        self._disk.left -= 1
        self._handle.write(line)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)


def _keys(lines) -> set[tuple[str, int]]:
    """(record_id, answer_index) of every line that parses."""
    keys = set()
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:  # a torn last line
            continue
        keys.add((obj["record_id"], obj["answer_index"]))
    return keys


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines() if path.exists() else []


@settings(deadline=None)
@given(data=st.data())
def test_resume_that_fails_while_it_folds_kept_lines_loses_none_of_them(data, resume_env):
    """A --resume that dies at its k-th line written, while it folds the kept
    lines onto --out or after, as it streams to OUT.partial: a second --resume
    writes the uninterrupted bytes and computes no line an earlier run wrote."""
    argv, clean, kept, _ = _interrupted_state(data, resume_env)
    k = data.draw(st.integers(0, len(kept) + len(clean) - 1), label="lines written before the failure")
    code, err, computed = _resume(resume_env, argv, _FullDiskAt(k))
    out, partial = resume_env["out"], Path(f"{resume_env['out']}.partial")
    missing = _ids(line for i, line in enumerate(clean) if i not in kept)
    if code == 0:  # fewer than k + 1 lines to write
        assert out.read_bytes() == b"".join(clean)
        assert computed == missing
        return
    assert code == 1 and err.endswith("error: [Errno 28] No space left on device\n"), err
    assert computed == missing[: len(computed)]  # no kept line was computed
    # every line a run wrote: the interrupted state's and those the failed resume added
    written = _keys(clean[i] for i in kept) | _keys(_lines(out)) | _keys(_lines(partial))

    code, err, computed = _resume(resume_env, argv)
    assert code == 0, err
    assert out.read_bytes() == b"".join(clean)
    assert computed == [
        obj["record_id"]
        for obj in map(json.loads, clean)
        if (obj["record_id"], obj["answer_index"]) not in written
    ]
    assert not partial.exists()
