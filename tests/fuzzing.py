"""Hypothesis helpers shared by the tests that fuzz parsed JSON documents."""

from __future__ import annotations

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def mutate_one_value(data, document, values=JSON_VALUES):
    """Replace or delete one value anywhere in a parsed JSON document, or
    replace the whole document, drawing a new value from ``values``;
    returns the mutated document."""
    parent, step = None, None
    node = document
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        parent = node
        step = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[step]
    if parent is None:
        return data.draw(values)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[step]
    else:
        parent[step] = data.draw(values)
    return document
