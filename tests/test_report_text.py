"""``cli.report_text`` writes the text of ``json.dumps(v, indent=2,
sort_keys=True)``, byte for byte, on every supported Python.

Reports are written with it before Python 3.13 (later versions call
``json.dumps``, which is then in C), but it is called directly here, so
it is checked on every version.  Generated JSON values check the text,
or the exception type where ``json.dumps`` raises; every golden-corpus
report and an RP2 x S4 bundle report check the shapes reports have.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cechfib import (
    barycentric_subdivision, enumerate_homs, from_homomorphism, io as docio,
    star_cover, symmetric_group,
)
from cechfib.cli import main, report_text

import corpus
from test_cli_golden import golden


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _same_as_json(value):
    try:
        want = _dumps(value)
    except (TypeError, ValueError) as exc:  # what json.dumps raises on a value
        with pytest.raises(type(exc)):
            report_text(value)
    else:
        assert report_text(value) == want


# every code point, lone surrogates included, with quotes, backslashes
# and control characters drawn often
strings = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "é", " ", "\ud800", "a|b", "💡"])
ints = st.integers() | st.sampled_from(
    [0, -1, 2**31, -2**63, 2**64, 10**40, -10**40])
floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
scalars = st.none() | st.booleans() | ints | floats | strings
# the shapes that are written in bulk, and near misses of them: bools
# among ints, a string among ints, empty inner lists
leaf_lists = (
    st.lists(strings, max_size=5) | st.lists(ints, max_size=5)
    | st.lists(ints | st.booleans(), max_size=5)
    | st.lists(st.booleans(), max_size=3)
    | st.lists(ints | strings, max_size=4)
)
keys = (strings | ints | st.booleans() | st.none() | floats)


def _containers(children):
    lists = st.lists(children, max_size=4)
    return (
        lists | lists.map(tuple) | leaf_lists | leaf_lists.map(tuple)
        | st.lists(leaf_lists, max_size=4)
        | st.lists(leaf_lists.map(tuple), max_size=3).map(tuple)
        | st.dictionaries(strings, strings | ints, max_size=4)
        | st.dictionaries(strings, children, max_size=4)
        # keys json converts: ints with bools, and a single None, float
        # or any key; keys of mixed types mostly do not sort
        | st.dictionaries(ints | st.booleans(), children, max_size=4)
        | st.dictionaries(st.none() | floats | keys, children, max_size=1)
        | st.dictionaries(keys, children, max_size=3)
    )


def _values(depth):
    """JSON values nested at most ``depth`` containers deep, empty
    containers at every depth."""
    if depth == 0:
        return scalars
    return scalars | _containers(_values(depth - 1))


@settings(max_examples=400, deadline=None)
@given(_values(4))
@example([1, True, False, -2])
@example([[1, True], [0]])
@example({"a": True, "b": 1})
@example({"x": [[]], "y": [["a"], []], "z": ((1, 2), ())})
@example({1: "a", True: "b"})
@example({None: [math.nan, -0.0, math.inf]})
@example({"a": 1, 2: "b"})
@example({"\ud800": ["\x00", '"\\']})
@example([10**5000])
@example([object()])
@example({(1, 2): 0})
def test_text_equals_json_dumps(value):
    _same_as_json(value)


def test_a_cycle_raises_what_json_dumps_raises():
    loop = [1]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        report_text({"a": loop})


def test_every_golden_report():
    reports = [text for case in golden().values()
               for text in (case["stdout"], case["output"]) if text]
    assert len(reports) > 20
    for text in reports:
        assert report_text(json.loads(text)) + "\n" == text


def test_rp2_s4_bundle_report(tmp_path):
    """The largest report shape: over the star cover of the subdivided
    RP2, a total of 1,440 triangles, its projection of 744 labels and the
    S4 group and action tables."""
    group = symmetric_group(4)
    cover = star_cover(barycentric_subdivision(corpus.RP2_SIX)[0])
    presentation = cover.nerve.presentation
    twisted = next(
        images for images in enumerate_homs(presentation, group)
        if {group.element_order(g) for g in images} == {1, 2}
    )
    path, out = tmp_path / "cocycle.json", tmp_path / "report.json"
    path.write_text(json.dumps(docio.cocycle_to_doc(
        from_homomorphism(twisted, cover, group))), encoding="utf-8")
    assert main(["bundle-build", "--input", str(path), "--output", str(out)]) == 0
    data = out.read_text(encoding="utf-8")
    report = json.loads(data)
    bundle = report["details"]["bundle"]
    assert (len(bundle["total"]["maximal"]), len(bundle["projection"])) == (1440, 744)
    assert report_text(report) + "\n" == data
    assert _dumps(report) + "\n" == data
