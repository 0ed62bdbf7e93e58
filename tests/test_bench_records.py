"""Every BENCH_*.json record at the repository root has the shape of a speed claim.

A speed claim is backed by a BENCH_<label>.json at the root: per workload,
each parent/change pair with its seed, the medians, the quartiles and the
pairs won per metric; and the host it ran on.  Every end-to-end median,
inclusive quartile and pairs_won count is recomputed from the pairs, with
the direction BENCHMARK.json gives, and so are the claim block's medians,
gap, parent IQR and met flag.  No end-to-end change median may be worse
than its parent median by more than the metric's bound in BENCHMARK.json,
a share of the parent median.
"""

import json
import math
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _end_to_end():
    """Each end-to-end metric of BENCHMARK.json, with its direction and bound, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def check_record(path, spec):
    """Raise AssertionError, naming path and the fault, unless the record holds."""
    better = {name: m["better"] for name, m in spec.items()}

    def fail(why):
        raise AssertionError(f"{path.name}: {why}")

    def same(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    def gain(metric, parent, change):
        return parent - change if better[metric] == "lower" else change - parent

    end_to_end = set(better)
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:
        fail(f"does not parse: {err}")
    if not isinstance(rec, dict) or not rec.get("host") or not rec.get("workloads"):
        fail("needs a host record and at least one workload")
    for name, w in rec["workloads"].items():
        pairs = w.get("pairs") or []
        if len(pairs) < 2:
            fail(f"{name}: a claim needs at least two pairs")
        metrics = set(pairs[0].get("parent") or fail(f"{name}: pair without parent values"))
        if not end_to_end <= metrics:
            fail(f"{name}: pairs lack {sorted(end_to_end - metrics)}")
        for p in pairs:
            seed = p.get("seed")
            if not isinstance(seed, int):
                fail(f"{name}: a pair without its seed")
            for side in ("parent", "change"):
                vals = p.get(side)
                if not isinstance(vals, dict) or set(vals) != metrics or not all(
                    isinstance(v, (int, float)) for v in vals.values()
                ):
                    fail(f"{name}: seed {seed} lacks {side} values for {sorted(metrics)}")
        for side in ("parent", "change"):
            med = (w.get("medians") or {}).get(side) or {}
            quart = (w.get("quartiles") or {}).get(side) or {}
            if set(med) != metrics or set(quart) != metrics:
                fail(f"{name}: medians and quartiles need {side} values for {sorted(metrics)}")
            if not all(isinstance(q, list) and len(q) == 2 for q in quart.values()):
                fail(f"{name}: each {side} quartile is a [q1, q3] pair")
        won = w.get("pairs_won") or {}
        if set(won) != metrics or not all(
            isinstance(n, int) and 0 <= n <= len(pairs) for n in won.values()
        ):
            fail(f"{name}: pairs_won needs a count per metric")
        for m in end_to_end:
            for side in ("parent", "change"):
                vals = [p[side][m] for p in pairs]
                q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
                if not same(w["medians"][side][m], statistics.median(vals)):
                    fail(f"{name}: {side} median of {m} is not the median of its pairs")
                if not all(map(same, w["quartiles"][side][m], (q1, q3))):
                    fail(
                        f"{name}: {side} quartiles of {m} are not the inclusive quartiles "
                        "of its pairs"
                    )
            if won[m] != sum(gain(m, p["parent"][m], p["change"][m]) > 0 for p in pairs):
                fail(f"{name}: pairs_won of {m} is not the number of pairs the change won")
            parent, bound = w["medians"]["parent"][m], spec[m]["bound"]
            if gain(m, parent, w["medians"]["change"][m]) < -bound * parent:
                fail(
                    f"{name}: the change median of {m} is worse than the parent's by more "
                    f"than {bound} of it"
                )
    claim = rec.get("claim") or fail("no claim block")
    w = rec["workloads"].get(claim.get("workload")) or fail("the claim names no recorded workload")
    m = claim.get("metric")
    if m not in end_to_end or claim.get("better") != better[m]:
        fail("the claim needs an end-to-end metric and its direction from BENCHMARK.json")
    med = {side: w["medians"][side][m] for side in ("parent", "change")}
    q1, q3 = w["quartiles"]["parent"][m]
    gap = gain(m, med["parent"], med["change"])
    want = {"pairs": len(w["pairs"]), "pairs_won": w["pairs_won"][m]}
    if any(claim.get(k) != v for k, v in want.items()):
        fail("the claim pairs and pairs_won are not those of its workload")
    for key, val in (
        ("median_parent", med["parent"]),
        ("median_change", med["change"]),
        ("median_gap", gap),
        ("parent_iqr", q3 - q1),
    ):
        if not isinstance(claim.get(key), (int, float)) or not same(claim[key], val):
            fail(f"the claim {key} is not recomputed from the pairs")
    if claim.get("met") is not (10 * want["pairs_won"] >= 9 * want["pairs"] and gap > q3 - q1):
        fail("the claim met flag disagrees with 9 of 10 pairs won and a gap above the parent IQR")


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_bench_record_has_the_shape_of_a_speed_claim(path):
    check_record(path, _end_to_end())


def _pairs_won_off_by_one(rec):
    claim = rec["claim"]
    won = rec["workloads"][claim["workload"]]["pairs_won"]
    m = claim["metric"]
    won[m] += -1 if won[m] else 1


def _met_flipped(rec):
    rec["claim"]["met"] = not rec["claim"]["met"]


@pytest.mark.parametrize(
    "mutate, why",
    [
        (_pairs_won_off_by_one, "is not the number of pairs the change won"),
        (_met_flipped, "the claim met flag disagrees"),
    ],
)
def test_a_record_with_a_wrong_count_fails(tmp_path, mutate, why):
    """One pairs_won count off by one, or a flipped met flag, in a copy of a
    committed record fails the check, which the record itself passes."""
    source = RECORDS[-1]
    check_record(source, _end_to_end())
    rec = json.loads(source.read_text(encoding="utf-8"))
    mutate(rec)
    path = tmp_path / source.name
    path.write_text(json.dumps(rec), encoding="utf-8")
    with pytest.raises(AssertionError, match=why):
        check_record(path, _end_to_end())


def test_a_record_that_breaks_a_bound_fails(tmp_path):
    """Every change peak_rss_mb of a committed record made a fifth higher,
    with its medians, quartiles and pairs_won recomputed to match, is past
    the metric's bound of a tenth and fails on that bound."""
    source = RECORDS[-1]
    spec = _end_to_end()
    assert spec["peak_rss_mb"]["bound"] < 0.2
    rec = json.loads(source.read_text(encoding="utf-8"))
    for w in rec["workloads"].values():
        for p in w["pairs"]:
            p["change"]["peak_rss_mb"] *= 1.2
        w["medians"]["change"]["peak_rss_mb"] *= 1.2
        w["quartiles"]["change"]["peak_rss_mb"] = [
            q * 1.2 for q in w["quartiles"]["change"]["peak_rss_mb"]
        ]
        w["pairs_won"]["peak_rss_mb"] = sum(
            p["change"]["peak_rss_mb"] < p["parent"]["peak_rss_mb"] for p in w["pairs"]
        )
    path = tmp_path / source.name
    path.write_text(json.dumps(rec), encoding="utf-8")
    with pytest.raises(AssertionError, match="of peak_rss_mb is worse than the parent's by more than 0.1"):
        check_record(path, spec)
