import ast
import json
from pathlib import Path

import pytest

from conftest import quiet_main, run_python

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lfqa_eval"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope: ast.AST):
    """The nodes of scope, but not those of the functions defined in it."""
    for node in ast.iter_child_nodes(scope):
        yield node
        if not isinstance(node, _FUNCTIONS):
            yield from _own_nodes(node)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    """A module-level import is used somewhere in the module; an import inside
    a function is used inside that function, a name elsewhere not counting."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))]:
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in _own_nodes(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        where = getattr(scope, "name", "module level")
        unused += [f"{name} in {where}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_helper_is_used():
    """A _name function or class at module level, or method in a class body, that
    nothing in the package refers to, or a self._name attribute stored and never
    read, is left-over code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
        for node in scope.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and private(node.name)
    }
    stored = set()
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    if isinstance(node.value, ast.Name) and node.value.id == "self" and private(node.attr):
                        stored.add((module, f"self.{node.attr}"))
                    continue
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unused = [
        f"{module}: {name}"
        for module, name in defined | stored
        if name.removeprefix("self.") not in referenced
    ]
    assert sorted(unused) == []


_LOADED_IN_CHILD = """
import contextlib, io, json, sys
started = set(sys.modules)  # with what a site hook of this interpreter may have loaded
from lfqa_eval import cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps({
    "layers": sorted(m.removeprefix("lfqa_eval.") for m in sys.modules if m.startswith("lfqa_eval")),
    "stdlib": [m for m in ("dataclasses", "inspect") if m in sys.modules and m not in started],
}))
"""

# what `import lfqa_eval.cli` loads: the package and the layers every subcommand reads through
_CLI = ["cli", "corpus", "lfqa_eval", "models", "segment"]


@pytest.mark.parametrize(
    ("case", "added"),
    [
        ("import", []),
        ("validate", []),
        ("stats", []),
        ("score", ["scoring"]),
        ("agreement", ["scoring"]),
        ("eval-detect", ["evalmetrics"]),
        ("feedback", ["feedback", "genclient"]),
        ("refine-eir", ["feedback", "genclient", "refine"]),
        ("eval-correct", ["evalmetrics"]),
        ("selfcheck", ["evalmetrics"]),
    ],
)
def test_each_subcommand_loads_only_the_layers_it_runs(case, added, golden_env, tmp_path):
    """In a fresh interpreter, importing the cli and running one subcommand loads
    exactly these lfqa_eval modules: no scripted run loads transport. Nor does
    any load dataclasses, or inspect, which it imports."""
    corpus, backend = str(golden_env["corpus"]), f"scripted:{golden_env['fixtures']}"
    predictions = tmp_path / "predictions.jsonl"
    scores = tmp_path / "scores.jsonl"
    scores.write_text('{"record_id": "g1", "error_score": 0.5}\n', encoding="utf-8")
    judgments = tmp_path / "judgments.jsonl"
    judgments.write_text('{"record_id": "g1", "verdicts": ["yes", "n/a"]}\n', encoding="utf-8")
    argvs = {
        "import": [],
        "validate": ["validate", corpus],
        "stats": ["stats", corpus, "--out", str(tmp_path / "stats.jsonl")],
        "score": ["score", corpus, "--out", str(tmp_path / "cards.jsonl")],
        "agreement": ["agreement", corpus, "--out", str(tmp_path / "agreement.jsonl")],
        "eval-detect": ["eval-detect", corpus, "--predictions", str(predictions)],
        "eval-correct": ["eval-correct", "--baseline", str(scores), "--refined", str(scores)],
        "selfcheck": ["selfcheck", "--judgments", str(judgments)],
        "feedback": ["feedback", corpus, "--backend", backend, "--out", str(tmp_path / "fb.jsonl")],
        "refine-eir": ["refine", corpus, "--mode", "eir", "--backend", backend,
                       "--out", str(tmp_path / "eir.jsonl")],
    }
    if case == "eval-detect":
        assert quiet_main(["feedback", corpus, "--backend", backend, "--out", str(predictions)])[0] == 0
    done = run_python(_LOADED_IN_CHILD, json.dumps(argvs[case]))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"layers": sorted(_CLI + added), "stdlib": []}
