"""Verification report: an ordered record of named checks.

Each entry carries the expected value, the computed value, a provenance
tag separating literature-stated numbers from derived or model-derived
ones, and a pass/fail/undecidable status.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable, List, Optional

from .exact_arith import _Record

# stated: a number quoted from the source construction
# trivial: immediate arithmetic
# derived: computed by an independent oracle in this toolkit
# model-derived: follows from a documented counting model, not proven here
# assumed: taken on faith from the source argument, beyond numeric reach
PROVENANCE_TAGS = ("stated", "trivial", "derived", "model-derived", "assumed")
STATUSES = ("pass", "fail", "undecidable")


class CheckEntry(_Record):
    __slots__ = ("check_id", "reference", "expected", "actual", "provenance", "status")
    __hash__ = None  # expected and actual may be unhashable lists or dicts

    def __init__(
        self,
        check_id: str,
        reference: str,
        expected: Any,
        actual: Any,
        provenance: str,
        status: str,
    ) -> None:
        if provenance not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {provenance!r}")
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        set_id, set_reference, set_expected, set_actual, set_provenance, set_status = self._setters
        set_id(self, check_id)
        set_reference(self, reference)
        set_expected(self, expected)
        set_actual(self, actual)
        set_provenance(self, provenance)
        set_status(self, status)


def check(check_id: str, reference: str, expected, actual, provenance: str) -> CheckEntry:
    status = "pass" if actual == expected else "fail"
    return CheckEntry(check_id, reference, expected, actual, provenance, status)


def undecidable(check_id: str, reference: str, expected, provenance: str) -> CheckEntry:
    return CheckEntry(check_id, reference, expected, None, provenance, "undecidable")


def _set_repr(value) -> str:
    """repr of a set or frozenset with its elements in sorted order.

    A set's own repr follows its hash-table layout, which depends on how the
    set was built; sorted, the text depends on the contents alone.  Elements
    that do not compare with each other are sorted by their repr.
    """
    try:
        items = sorted(value)
    except TypeError:
        items = sorted(value, key=repr)
    name = type(value).__name__
    if not items:
        return f"{name}()"
    body = "{" + ", ".join(map(repr, items)) + "}"
    return body if type(value) is set else f"{name}({body})"


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return _set_repr(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)


class VerificationReport(_Record):
    __slots__ = ("entries", "metadata")
    __hash__ = None  # entries grows through extend

    def __init__(
        self, entries: Optional[List[CheckEntry]] = None, metadata: Optional[dict] = None
    ) -> None:
        set_entries, set_metadata = self._setters
        set_entries(self, [] if entries is None else entries)
        set_metadata(self, {} if metadata is None else metadata)

    def extend(self, fragment: Iterable[CheckEntry]) -> None:
        self.entries.extend(fragment)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "undecidable": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def overall_pass(self) -> bool:
        # undecidable entries are tallied but never flip the overall status
        return all(e.status != "fail" for e in self.entries)

    def to_dict(self, timestamp: bool = True) -> dict:
        meta = dict(self.metadata)
        if timestamp:
            from datetime import datetime, timezone  # only a timestamped report needs it

            meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        counts = self.counts
        return {
            "metadata": meta,
            "entries": [
                {
                    "check_id": e.check_id,
                    "reference": e.reference,
                    "expected": _plain(e.expected),
                    "actual": _plain(e.actual),
                    "provenance": e.provenance,
                    "status": e.status,
                }
                for e in self.entries
            ],
            "summary": {
                "passed": counts["pass"],
                "failed": counts["fail"],
                "undecidable": counts["undecidable"],
                "overall": "pass" if self.overall_pass else "fail",
            },
        }

    def to_json(self, timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(timestamp=timestamp), indent=2) + "\n"
