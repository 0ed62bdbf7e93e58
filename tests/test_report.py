"""Report assembly, provenance tags, overall status and JSON shape."""

import json
from fractions import Fraction

import pytest

from godeaux_cert.report import (
    CheckEntry,
    VerificationReport,
    check,
    undecidable,
)


def test_check_derives_status():
    assert check("a", "ref", 1, 1, "trivial").status == "pass"
    assert check("a", "ref", 1, 2, "trivial").status == "fail"


def test_invalid_tags_rejected():
    with pytest.raises(ValueError):
        CheckEntry("a", "ref", 1, 1, "folklore", "pass")
    with pytest.raises(ValueError):
        CheckEntry("a", "ref", 1, 1, "trivial", "maybe")


def test_undecidable_never_flips_overall():
    r = VerificationReport()
    r.extend([check("a", "r", 1, 1, "derived"), undecidable("b", "r", 2, "assumed")])
    assert r.overall_pass
    assert r.counts == {"pass": 1, "fail": 0, "undecidable": 1}
    r.extend([check("c", "r", 1, 0, "stated")])
    assert not r.overall_pass


def test_to_dict_shape():
    r = VerificationReport(metadata={"seed": 1})
    r.extend([check("x.y", "something", Fraction(1, 2), Fraction(1, 2), "derived")])
    d = r.to_dict(timestamp=False)
    assert "timestamp" not in d["metadata"]
    assert d["summary"] == {
        "passed": 1,
        "failed": 0,
        "undecidable": 0,
        "overall": "pass",
    }
    entry = d["entries"][0]
    assert entry["expected"] == "1/2"  # fractions serialize as strings
    assert entry["provenance"] == "derived"


def test_json_is_valid_and_deterministic():
    r = VerificationReport(metadata={"seed": 1})
    r.extend([check("x", "r", (1, 2), (1, 2), "trivial")])
    a = r.to_json(timestamp=False)
    b = r.to_json(timestamp=False)
    assert a == b
    parsed = json.loads(a)
    assert parsed["entries"][0]["expected"] == [1, 2]


def test_timestamp_present_by_default():
    r = VerificationReport()
    assert "timestamp" in r.to_dict()["metadata"]


def _report_bytes(expected, actual):
    r = VerificationReport()
    r.extend([check("x", "r", expected, actual, "trivial")])
    return r.to_json(timestamp=False)


def test_set_values_render_by_contents_not_insertion_order():
    """Equal sets built in different orders print the same, elements sorted."""
    # 1 and 9 share a slot of an 8-slot table, so each set iterates in insertion order
    a, b = frozenset([1, 9]), frozenset([9, 1])
    assert a == b and repr(a) != repr(b)
    assert _report_bytes(a, a) == _report_bytes(b, b)
    entry = json.loads(_report_bytes(a, {9, 1}))["entries"][0]
    assert entry["expected"] == "frozenset({1, 9})"
    assert entry["actual"] == "{1, 9}"
    quadric = [(5, 2), (0, 3), (3, 0), (2, 5)]
    assert _report_bytes(frozenset(quadric), set(quadric)) == _report_bytes(
        frozenset(reversed(quadric)), set(reversed(quadric))
    )


def test_set_rendering_keeps_the_repr_shape():
    entry = json.loads(_report_bytes(set(), frozenset()))["entries"][0]
    assert (entry["expected"], entry["actual"]) == ("set()", "frozenset()")
    # elements that do not compare with each other sort by their repr
    entry = json.loads(_report_bytes({1, "a"}, frozenset([(1,), None])))["entries"][0]
    assert entry["expected"] == "{'a', 1}"
    assert entry["actual"] == "frozenset({(1,), None})"
