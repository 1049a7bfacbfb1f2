"""dumps_indented against json.dumps(indent=2, sort_keys=True)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spg.jsontext import dumps_indented

# strings json escapes or that look like its own separators
_AWKWARD = st.sampled_from(['"', "\n", ", ", '", "', ": ", "\\", "é", "☃", "\U0001f600", "\ud800", ""])
_STRINGS = st.one_of(st.text(max_size=8), _AWKWARD)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 1e308]),
    _STRINGS,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=5),
    ),
    max_leaves=30,
)


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
@example([[]])
@example({"a": {}, "b": [], "c": ()})
@example([1, [], {}, "x"])
@example({"a": [1, {"b": [[]]}], "c": {"d": -0.0, "e": [math.nan, math.inf, -math.inf]}})
@example(([(), ([],)], 2**70))
def test_matches_json_dumps_indent_2_sorted(value):
    assert dumps_indented(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {2: [1], 10: [], 1: {"x": [2]}},
        {1.5: [1], -0.0: {}, math.inf: [[]]},
        {True: [1], False: []},
        {None: [[1]]},
    ],
)
def test_non_string_keys_are_written_as_json_writes_them(value):
    assert dumps_indented(value) == _reference(value)


def test_keys_json_refuses_are_refused():
    with pytest.raises(TypeError):
        dumps_indented({(1, 2): [1]})
