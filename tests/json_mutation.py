"""A Hypothesis strategy that changes one node of a JSON document.

The fuzz properties of the corpus reader and of the keyed side-file reader
start from a line that reads and change exactly one node of it: replace it
with another JSON value or, inside an object or array, remove it.
"""
from __future__ import annotations

import copy
import math

from hypothesis import strategies as st

# Values a typed-field reader has to tell apart: indexes spelled as floats,
# bools or strings, negative and huge numbers, non-finite floats, empty
# containers, and the enum values and shapes that the files use.
_EDGE_VALUES = [
    None, True, False, 0, 1, -1, 0.0, 1.0, -0.0, 1.5, 2**63, 1e300, math.nan, math.inf,
    "", "0", "1", "x", "question", "law", "human", "completeness", "Complete", "Incomplete",
    "yes", "no", [], {}, [0], {"answer": 0}, {"whole_answer": True}, {"start": 0, "end": 1},
]

_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)

json_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    _scalars,
    st.recursive(
        _scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    ),
)

REMOVE = object()


def replaced(doc, path: tuple, value):
    """A copy of doc whose node at path is value, or is gone for REMOVE (below the root)."""
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


@st.composite
def one_node_changed(draw, doc):
    """doc with one node replaced by a JSON value or, below the root, removed.

    The node is found by walking down from the root: into one of its fields
    nine times in ten (a line that is not an object has tests of its own),
    then on with even odds at each container, so a line's own fields are
    drawn as often as the leaves deep inside them.
    """
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and draw(_step_down(path)):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = (*path, key), node[key]
    if not path:
        return replaced(doc, path, draw(json_values))
    return replaced(doc, path, draw(st.one_of(json_values, json_values, st.just(REMOVE))))


def _step_down(path: tuple):
    return st.booleans() if path else st.integers(0, 9).map(bool)
