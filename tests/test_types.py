"""The package's record and report types are immutable: a field cannot be
reassigned, a copy rebuilt from the fields is equal, and the repr names them.
The types that check their fields check a changed copy too."""
import pytest

from conftest import make_record
from lfqa_eval.cli import load_config
from lfqa_eval.corpus import label_answer
from lfqa_eval.evalmetrics import (
    ErrorScoreRecord,
    SupportJudgment,
    classify_detections,
    completeness_gold,
    correction_prf,
    detection_eval,
    selfcheck_aggregate,
)
from lfqa_eval.feedback import parse_feedback_output, select_feedback
from lfqa_eval.genclient import GenerationRequest, GenerationResult
from lfqa_eval.models import Aspect
from lfqa_eval.refine import run_eir
from lfqa_eval.scoring import domain_report, score_record

_RECORD = make_record(record_id="r1")
_FEEDBACK = select_feedback([parse_feedback_output("1. [Complete]", 1)])

_BUILT = {
    "QARecord": lambda: _RECORD,
    "SentenceLabeling": lambda: label_answer(_RECORD, 0, Aspect.COMPLETENESS),
    "FeedbackSample": lambda: _FEEDBACK.selected,
    "FeedbackResult": lambda: _FEEDBACK,
    "RefinementRecord": lambda: run_eir("q?", "An answer.", _FEEDBACK, client=None),  # passthrough
    "GenerationResult": lambda: GenerationResult(texts=["a"], truncated=[False]),
    "AspectScorecard": lambda: score_record(_RECORD)[0],
    "DomainRow": lambda: domain_report([_RECORD]).rows[0],
    "DomainReport": lambda: domain_report([_RECORD]),
    "CliConfig": lambda: load_config(None),
    "CorrectionReport": lambda: correction_prf({"a": True}, {"a": False}),
    "SelfCheckReport": lambda: selfcheck_aggregate([SupportJudgment(0, ("yes",))]),
    "DetectionCounts": lambda: classify_detections([0, 2], [1], 3),
    "DetectionEvalReport": lambda: detection_eval(completeness_gold([_RECORD]), []),
}


@pytest.mark.parametrize("name", list(_BUILT))
def test_type_is_immutable(name):
    obj = _BUILT[name]()
    assert type(obj).__name__ == name
    fields = list(type(obj).__annotations__)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    assert type(obj)(**{field: getattr(obj, field) for field in fields}) == obj
    assert repr(obj).startswith(f"{name}({fields[0]}={getattr(obj, fields[0])!r}, ")


@pytest.mark.parametrize(
    ("obj", "change", "message"),
    [
        (GenerationRequest("p", 1, 0.0), {"max_tokens": 0}, "max_tokens must be >= 1"),
        (GenerationRequest("p", 1, 0.0), {"temperature": -1.0}, "temperature must be"),
        (ErrorScoreRecord("a", 0.0), {"error_score": float("inf")}, "error_score must be"),
        (SupportJudgment(0, ("yes",)), {"verdicts": ()}, "at least one verdict"),
    ],
)
def test_a_checked_type_checks_its_copies(obj, change, message):
    """_replace builds through the same check as the constructor."""
    with pytest.raises(ValueError, match=message):
        obj._replace(**change)


def test_a_support_judgment_copy_is_normalised():
    assert SupportJudgment(0, ("yes",))._replace(verdicts=("N/A", " No")).verdicts == (
        "not_applicable",
        "no",
    )
