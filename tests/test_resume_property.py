"""Resume property: every interrupted state resumes to the uninterrupted bytes.

Over the golden corpus with a human answer put before each model answer (it
repeats the model answer, so its prompts have fixtures), on the scripted
backend: for a drawn command, ``--audit`` setting and ``--answer`` selector,
any subset of the uninterrupted lines kept in ``--out``, and any subset kept
in ``OUT.partial`` in corpus order whose last line may be cut at any byte,
``--resume`` writes the uninterrupted bytes, computes exactly the targets
that neither file keeps whole, and leaves no ``OUT.partial``.
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


@settings(deadline=None)
@given(data=st.data())
def test_resume_writes_the_uninterrupted_bytes_and_computes_only_what_is_missing(data, resume_env):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    audit = data.draw(st.booleans(), label="--audit")
    answer = data.draw(st.sampled_from(_SELECTORS), label="--answer")
    clean = resume_env["clean"][command, audit, answer]
    indices = st.sets(st.integers(0, len(clean) - 1))
    in_out = sorted(data.draw(indices, label="lines kept in --out"))
    in_partial = sorted(data.draw(indices, label="lines kept in OUT.partial"))

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
    kept = whole.union(in_out)

    computed = []
    real = cli_module.run_feedback

    def recording(question, *args, **kwargs):
        computed.append(resume_env["ids"][question])
        return real(question, *args, **kwargs)

    with mock.patch.object(cli_module, "run_feedback", recording):
        code, err = quiet_main([*resume_env["argv"](command, audit, answer, out), "--resume"])

    assert code == 0, err
    assert out.read_bytes() == b"".join(clean)
    missing = [json.loads(line)["record_id"] for i, line in enumerate(clean) if i not in kept]
    assert computed == missing  # in target order: the scripted backend runs records inline
    assert not partial.exists()
    assert ("torn last line dropped" in err) == torn, err
