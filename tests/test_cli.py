"""CLI: exit codes, config handling, determinism of JSON reports."""

import json
import marshal
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from godeaux_cert import cli


def run_cli(args):
    return cli.main(args)


def test_fast_suites_pass(capsys):
    assert run_cli(["monomials"]) == 0
    assert run_cli(["diophantine"]) == 0
    assert run_cli(["lattice"]) == 0
    assert run_cli(["counts"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_rr_suite_passes():
    assert run_cli(["rr"]) == 0


def test_pdo_suite_reduced_trials():
    assert run_cli(["pdo", "--trials", "30", "--seed", "7"]) == 0


def test_surface_single_prime():
    assert run_cli(["surface", "--primes", "11"]) == 0


def test_failing_member_exits_one(capsys):
    # dropping the z1^5 coefficient kills the free action
    bad = "0,0,0,0,0,0,0,1,1,1,0,0"
    assert run_cli(["surface", "--primes", "11", "--coeffs", bad]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_bad_coeff_count_exits_two(tmp_path, capsys):
    assert run_cli(["surface", "--coeffs", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "must have 12 entries, got 3" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"coefficients": [1] * 13}))
    assert run_cli(["surface", "--config", str(path)]) == 2
    assert "must have 12 entries, got 13" in capsys.readouterr().err


def test_bad_prime_exits_two(capsys):
    assert run_cli(["surface", "--primes", "7"]) == 2
    assert "error" in capsys.readouterr().err


# Each case's id is its key, so adding a case renames no other.  The first
# 36 keep the positional ids they were first collected under.
_MALFORMED_INPUTS = {
    "args0-None": (["surface", "--primes", "21"], None),
    "args1-config1": (["surface"], {"primes": "11"}),
    "args2-config2": (["surface"], {"coefficients": "1"}),
    "args3-None": (["pdo", "--trials", "0"], None),
    "args4-None": (["pdo", "--trials", "-3"], None),
    "args5-config5": (["pdo", "--trials", "3"], {"pdo_budget": {"T": 2}}),
    "args6-config6": (["pdo", "--trials", "3"], {"pdo_budget": {"T": 6}}),
    "args7-config7": (["pdo"], {"trials": None}),
    "args8-config8": (["pdo"], {"trials": True}),
    "args9-config9": (["pdo"], {"trials": 2.7}),
    "args10-config10": (["pdo", "--trials", "3"], {"seed": None}),
    "args11-config11": (["pdo", "--trials", "3"], {"pdo_budget": 5}),
    "args12-config12": (["pdo", "--trials", "3"], {"pdo_budget": {"t": 16}}),
    "args13-config13": (["pdo", "--trials", "3"], {"pdo_budget": {"T": 16.0}}),
    "args14-config14": (["pdo", "--trials", "3"], {"pdo_budget": {"d_bound": "6"}}),
    "args15-config15": (["surface"], {"primes": [[11]]}),
    "args16-config16": (["surface"], {"primes": [11.5]}),
    "args17-config17": (["surface"], {"prime": [31]}),
    "args18-config18": (["surface"], {"coefficients": [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, False]}),
    "args19-None": (["surface", "--primes", "11,11"], None),
    "args20-config20": (["surface"], {"primes": [31, 11, 31]}),
    "args21-config21": (["pdo", "--trials", "3"], {"pdo_budget": {"d_bound": -5}}),
    "args22-None": (["surface", "--primes", ","], None),
    "args23-config23": (["surface"], {"primes": []}),
    "args24-config24": (["pdo", "--trials", "3"], {"pdo_budget": {"T": 0}}),
    "args25-config25": (["pdo", "--trials", "3"], {"pdo_budget": {"T": -3}}),
    "args26-None": (["surface", "--coeffs", "0,0,0,0,0,0,0,0,0,0,0,0"], None),
    "args27-None": (["surface", "--primes", "11", "--coeffs", "11,0,0,0,0,0,0,0,0,0,0,0"], None),
    # too small to decide an order: bold_ord raises UndecidableOrderError
    "args28-config28": (["pdo"], {"pdo_budget": {"T": 7}}),
    "args29-config29": (["pdo", "--trials", "100"], {"pdo_budget": {"T": 8}}),
    # below T = 10 the suite refuses before its first draw; at seed 42 these
    # three used to exit 0, as their draws happened to decide every order
    "args30-config30": (["pdo", "--trials", "40"], {"pdo_budget": {"T": 7}}),
    "args31-config31": (["pdo", "--trials", "40"], {"pdo_budget": {"T": 8}}),
    "args32-config32": (["pdo", "--trials", "40"], {"pdo_budget": {"T": 9}}),
    # Random(-s) draws what Random(s) draws, so a negative seed is refused
    "args33-None": (["pdo", "--trials", "3", "--seed", "-1"], None),
    # an empty list is refused, not read as "use the defaults"
    "args34-None": (["surface", "--primes", ""], None),
    "args35-None": (["surface", "--coeffs", ""], None),
    # an empty item is refused, not skipped
    "primes_empty_item": (["surface", "--primes", "11,,31"], None),
    "primes_trailing_comma": (["surface", "--primes", "11,31,"], None),
}


@pytest.mark.parametrize(
    "args, config", list(_MALFORMED_INPUTS.values()), ids=list(_MALFORMED_INPUTS)
)
def test_malformed_input_exits_two(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = args + ["--config", str(path)]
    # main() is called in-process: an uncaught exception (the traceback a
    # user would see) fails the test before the exit code is compared
    assert run_cli(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_deeply_nested_config_exits_two(tmp_path, capsys):
    # json.dumps cannot build this: it recurses as deep as the parser does
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli(["monomials", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config file {path} nests JSON too deeply\n"
    assert "[PASS]" not in captured.out


def test_wrong_orbit_size_is_a_failed_check(monkeypatch, capsys):
    orbits = cli.picard_lattice.partition_orbits()
    short = cli.picard_lattice.DivisorClassOrbit(orbits[0].members[:9])
    monkeypatch.setattr(cli.picard_lattice, "partition_orbits", lambda: (short,) + orbits[1:])
    assert run_cli(["counts"]) == 1
    assert "[FAIL] counts.orbit_sizes:" in capsys.readouterr().out


def test_wrong_monomial_listing_is_a_failed_check(monkeypatch, capsys):
    # the listing names (4,1,0,0), which the search cannot find, instead of (0,1,3,1)
    listing = tuple(
        (4, 1, 0, 0) if m == (0, 1, 3, 1) else m for m in cli.quintic_family._MONOMIAL_ORDER
    )
    monkeypatch.setattr(cli.quintic_family, "_MONOMIAL_ORDER", listing)
    assert run_cli(["monomials"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] monomials.canonical_order:" in out
    assert out.endswith("4 passed, 1 failed, 0 undecidable -> FAIL\n")


def test_vanishing_coefficients_name_the_prime(capsys):
    # nonzero mod 31, zero mod 11
    assert run_cli(["surface", "--primes", "31,11", "--coeffs", "11,0,0,0,0,0,0,0,0,0,0,22"]) == 2
    assert "mod the prime 11" in capsys.readouterr().err


def test_unwritable_json_path_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert run_cli(["all", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert str(path) in captured.err
    # the path is tried before any check runs
    assert "[PASS]" not in captured.out


def test_run_that_exits_two_leaves_no_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pdo_budget": {"T": 7}}))
    path = tmp_path / "r.json"
    assert run_cli(["pdo", "--config", str(cfg), "--json", str(path)]) == 2
    assert not path.exists()
    # an old report at the path is left as it was
    path.write_text("old report")
    assert run_cli(["pdo", "--config", str(cfg), "--json", str(path)]) == 2
    assert path.read_text() == "old report"
    assert capsys.readouterr().err.startswith("error:")


_NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)
_NOT_LIST = _NOT_INT.filter(lambda v: not isinstance(v, list))
_CONFIG_KEYS = ("primes", "coefficients", "trials", "seed", "pdo_budget")
# one strategy per way a config can be malformed
_BAD_CONFIGS = {
    "not_an_object": st.one_of(
        st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=3)
    ),
    "unknown_key": st.text(min_size=1, max_size=8)
    .filter(lambda k: k not in _CONFIG_KEYS)
    .map(lambda k: {"primes": [11], k: 1}),
    "primes_not_a_list": st.builds(lambda v: {"primes": v}, _NOT_LIST),
    "primes_empty": st.just({"primes": []}),
    "prime_not_an_int": st.builds(lambda v: {"primes": [11, v]}, _NOT_INT),
    "prime_not_1_mod_5_or_composite": st.builds(
        lambda q: {"primes": [11, q]},
        st.integers(-100, 200).filter(lambda q: not (cli.is_prime(q) and q % 5 == 1)),
    ),
    "prime_repeated": st.builds(lambda q: {"primes": [q, 31, q]}, st.sampled_from((11, 41))),
    "coefficients_not_a_list": st.builds(lambda v: {"coefficients": v}, _NOT_LIST),
    "coefficients_wrong_count": st.builds(
        lambda n: {"coefficients": [1] * n}, st.integers(0, 20).filter(lambda n: n != 12)
    ),
    "coefficient_not_an_int": st.builds(
        lambda i, v: {"coefficients": [1] * i + [v] + [1] * (11 - i)}, st.integers(0, 11), _NOT_INT
    ),
    "coefficients_vanish_mod_a_prime": st.builds(
        lambda q, k: {"primes": [q], "coefficients": [q * k] * 12},
        st.sampled_from((11, 31, 41)),
        st.integers(-3, 3),
    ),
    "trials_not_an_int": st.builds(lambda v: {"trials": v}, _NOT_INT),
    "trials_below_one": st.builds(lambda v: {"trials": v}, st.integers(-10, 0)),
    "seed_not_an_int": st.builds(lambda v: {"seed": v}, _NOT_INT),
    "seed_negative": st.builds(lambda v: {"seed": v}, st.integers(max_value=-1)),
    "pdo_budget_not_an_object": st.builds(
        lambda v: {"pdo_budget": v}, _NOT_INT.filter(lambda v: not isinstance(v, dict))
    ),
    "pdo_budget_unknown_key": st.text(min_size=1, max_size=8)
    .filter(lambda k: k not in ("T", "d_bound"))
    .map(lambda k: {"pdo_budget": {k: 1}}),
    "T_not_an_int": st.builds(lambda v: {"pdo_budget": {"T": v}}, _NOT_INT),
    "T_below_one": st.builds(lambda v: {"pdo_budget": {"T": v}}, st.integers(-10, 0)),
    "d_bound_not_an_int": st.builds(lambda v: {"pdo_budget": {"d_bound": v}}, _NOT_INT),
    "d_bound_negative": st.builds(lambda v: {"pdo_budget": {"d_bound": v}}, st.integers(-10, -1)),
}


@pytest.mark.parametrize("kind", sorted(_BAD_CONFIGS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_malformed_config_exits_two(tmp_path, capsys, kind, data):
    config = data.draw(_BAD_CONFIGS[kind])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run_cli(["monomials", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "[PASS]" not in captured.out


def test_repeat_call_counts_are_kept(monkeypatch):
    """suite_surface compares the free-action routes on 1,000 samples per prime
    after the member's own check, and suite_rr checks 1,200 divisors x 4 curves."""
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli.quintic_family, "free_action_check")
    count(cli.rr_engine, "prespectral_hilbert_check")
    cfg = cli.load_config(cli.build_parser().parse_args(["all"]))
    cli.suite_surface(cfg)
    assert calls["free_action_check"] == 1001 * len(cfg["primes"]) == 3003
    cli.suite_rr(cfg)
    assert calls["prespectral_hilbert_check"] == 4800


def test_free_action_samples_replay_the_stream_and_reach_both_verdicts(monkeypatch):
    """Each prime's 1,000 samples are uniform integers below q^12 read as 12
    base-q digits: the calls after the member's own check are those vectors,
    in [0, q), and at q = 11 (about 68% of vectors free) both verdicts occur."""
    seen = []
    real = cli.quintic_family.free_action_check

    def recording(a, q):
        verdict = real(a, q)
        seen.append((tuple(a), q, verdict))
        return verdict

    monkeypatch.setattr(cli.quintic_family, "free_action_check", recording)
    cfg = cli.load_config(cli.build_parser().parse_args(["surface"]))
    cli.suite_surface(cfg)
    for q in cfg["primes"]:
        calls = [(a, verdict) for a, p, verdict in seen if p == q]
        assert len(calls) == 1001
        assert calls[0][0] == cfg["coefficients"]
        rng = Random(cfg["seed"] * 100003 + q)
        for vec, _ in calls[1:]:
            n = rng.randrange(q**12)
            assert len(vec) == 12 and all(0 <= v < q for v in vec)
            assert sum(v * q**i for i, v in enumerate(vec)) == n
        if q == 11:
            assert {verdict for _, verdict in calls[1:]} == {True, False}


def test_a_zero_draw_is_fixed_up_to_a_unit_vector(monkeypatch):
    """The zero vector has no verdict to compare, so a draw of 0 becomes the
    unit vector at a drawn position."""

    class ZeroFirst(Random):
        """Random whose first draw below 11^12 reads 0; the stream moves on as before."""

        zeroed = False

        def randrange(self, *args):
            n = super().randrange(*args)
            if args == (11**12,) and not ZeroFirst.zeroed:
                ZeroFirst.zeroed = True
                return 0
            return n

    seen = []
    real = cli.quintic_family.free_action_check

    def recording(a, q):
        seen.append(tuple(a))
        return real(a, q)

    monkeypatch.setattr(cli, "Random", ZeroFirst)
    monkeypatch.setattr(cli.quintic_family, "free_action_check", recording)
    cfg = cli.load_config(cli.build_parser().parse_args(["surface", "--primes", "11"]))
    cli.suite_surface(cfg)
    rng = Random(cfg["seed"] * 100003 + 11)
    rng.randrange(11**12)
    unit = [0] * 12
    unit[rng.randrange(12)] = 1
    assert seen[1] == tuple(unit)
    assert len(seen) == 1001


@pytest.mark.parametrize("q", [11, 31, 41])
def test_digits_round_trip(q):
    size = q**12
    for n in (0, 1, q - 1, q, size // 2, size - 1):
        vec = cli._digits(n, q)
        assert len(vec) == 12 and all(0 <= v < q for v in vec)
        assert sum(v * q**i for i, v in enumerate(vec)) == n


def test_negative_seed_is_refused(capsys):
    """Random(-s) draws what Random(s) draws, so --seed -42 would rerun every
    draw of seed 42 under another name in the report."""
    assert Random(-42).getstate() == Random(42).getstate()
    assert run_cli(["monomials", "--seed", "-42"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be at least 0, got -42\n"
    assert "[PASS]" not in captured.out
    assert run_cli(["monomials", "--seed", "0"]) == 0


def _rr_reading(check_id):
    (entry,) = [e for e in cli.suite_rr({}) if e.check_id == check_id]
    return entry.actual


def _hilbert_failures_oracle(curves):
    """Oracle: the Hilbert condition on every divisor x curve pair, each paired on its own."""
    C = cli.rr_engine.NumericalDivisor(1, 1)
    return sum(
        not cli.rr_engine.prespectral_hilbert_check(D.numerics, C, D.pair(curve), n_max=10)
        for D in cli.picard_lattice.divisors()
        for curve in curves
    )


def test_hilbert_condition_matches_per_curve_pairing(monkeypatch):
    """suite_rr pairs each divisor once per numerical class of curve; the count
    must equal pairing every curve, also when the curves fall in two classes."""
    pl = cli.picard_lattice
    real = _hilbert_failures_oracle(pl.canonical_curves())
    assert _rr_reading("rr.hilbert_condition") == real == 0
    root = pl.e8_roots()[0]
    # interleaved, so a pairing shared across classes or taken from a neighbour shows
    curves = tuple(
        pl.PicardClass(1, e, t)
        for e, t in ((pl.E8_ZERO, 1), (root, 2), (pl.E8_ZERO, 3), (root, 4))
    )
    monkeypatch.setattr(pl, "canonical_curves", lambda: curves)
    want = _hilbert_failures_oracle(curves)
    assert 0 < want < 2400  # the root classes fail wherever D.E pairs nonzero with the root
    assert _rr_reading("rr.hilbert_condition") == want


def _chi_failures_oracle():
    """Oracle: chi(O(D)) != 0 counted over every divisor, each on its own numerics."""
    god = cli.rr_engine.GODEAUX
    return sum(
        cli.rr_engine.chi_divisor(god, D.numerics) != 0 for D in cli.picard_lattice.divisors()
    )


def test_divisor_runs_match_per_divisor_oracle(monkeypatch):
    """suite_rr pairs and evaluates chi once per run of divisors with one
    (k, E); its readings must equal checking every divisor on its own, also
    when a class is split and when a failing class sits next to a passing one."""
    pl = cli.picard_lattice
    r0, r1 = pl.e8_roots()[:2]
    divisors = (
        pl.PicardClass(1, r0, 0),
        pl.PicardClass(1, r1, 0),  # splits the class (1, r0)
        pl.PicardClass(1, r0, 2),
        # (2, r0) fails chi and Hilbert; it shares its root with the run above,
        # is two long, and pairs to 2 with every curve where (1, r1) pairs to 1
        pl.PicardClass(2, r0, 3),
        pl.PicardClass(2, r0, 4),
        pl.PicardClass(1, r1, 1),
    )
    monkeypatch.setattr(pl, "divisors", lambda: divisors)
    curves = pl.canonical_curves()
    want_chi, want_hilbert = _chi_failures_oracle(), _hilbert_failures_oracle(curves)
    assert (want_chi, want_hilbert) == (2, 2 * len(curves))
    calls = Counter()
    real = cli.rr_engine.prespectral_hilbert_check

    def counted(*args, **kwargs):
        calls["hilbert"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.rr_engine, "prespectral_hilbert_check", counted)
    entries = {e.check_id: e.actual for e in cli.suite_rr({})}
    assert entries["rr.chi_vanishes"] == want_chi
    assert entries["rr.hilbert_condition"] == want_hilbert
    assert calls["hilbert"] == len(divisors) * len(curves)


def test_warm_rr_suite_pairs_each_divisor_once(monkeypatch):
    """The five torsion tags of a root share one pairing, and the four curves
    are all numerically K, so a warm suite_rr makes one pairing per divisor
    class: 240, not 1,200 x 4; the first call also fills each class's
    D.numerics."""
    cli.suite_rr({})
    calls = Counter()
    real_pair = cli.picard_lattice.PicardClass.pair

    def counted(self, other):
        calls["pair"] += 1
        return real_pair(self, other)

    monkeypatch.setattr(cli.picard_lattice.PicardClass, "pair", counted)
    cli.suite_rr({})
    assert calls["pair"] == 240


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "primes": [11],
                "coefficients": [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
                "trials": 25,
                "seed": 5,
                "pdo_budget": {"T": 10, "d_bound": 4},
            }
        )
    )
    assert run_cli(["pdo", "--config", str(cfg)]) == 0
    # flag overrides file
    assert run_cli(["pdo", "--config", str(cfg), "--trials", "10"]) == 0


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    assert run_cli(["monomials", "--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert run_cli(["monomials", "--config", str(cfg)]) == 2


def test_config_that_is_not_json_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    # empty, malformed, and not UTF-8
    for data in (b"", b"{not json", b"\xff"):
        cfg.write_bytes(data)
        assert run_cli(["monomials", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config file {cfg} is not valid JSON: ")
        assert "[PASS]" not in captured.out


def test_json_report_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    base = ["monomials", "--no-timestamp", "--seed", "42"]
    assert run_cli(base + ["--json", str(p1)]) == 0
    assert run_cli(base + ["--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["summary"]["overall"] == "pass"
    assert payload["metadata"]["tool"] == "godeaux-cert"
    assert "timestamp" not in payload["metadata"]


def test_json_report_has_provenance_tags(tmp_path):
    path = tmp_path / "counts.json"
    assert run_cli(["counts", "--json", str(path), "--no-timestamp"]) == 0
    payload = json.loads(path.read_text())
    tags = {e["provenance"] for e in payload["entries"]}
    assert "model-derived" in tags
    by_id = {e["check_id"]: e for e in payload["entries"]}
    assert by_id["counts.excellent_bound"]["provenance"] == "model-derived"
    assert by_id["counts.excellent_bound"]["actual"] == 840


GOLDEN_RUNS = (
    (
        "golden_all_seed42_trials40_q11.json",
        ["all", "--seed", "42", "--trials", "40", "--primes", "11"],
        None,
        0,
    ),
    (
        "golden_pdo_seed7_trials200_T16.json",
        ["pdo", "--seed", "7", "--trials", "200"],
        {"pdo_budget": {"T": 16}},
        0,
    ),
    (
        "golden_pdo_default.json",
        ["pdo", "--seed", "42", "--trials", "500"],
        {"pdo_budget": {"T": 12}},
        0,
    ),
    # the Fermat member at the default primes 11, 31 and 41
    ("golden_surface_default.json", ["surface"], None, 0),
    # a member singular at (1:1:1:1) by construction; its smoothness checks fail
    (
        "golden_surface_singular0_q11_q31.json",
        ["surface"],
        {"coefficients": [-1, 2, -1, 5, 4, -5, -8, -1, 6, 7, -3, -5], "primes": [11, 31]},
        1,
    ),
)


def test_report_bytes_match_golden(tmp_path):
    """Full reports of small runs are byte-identical to the recorded ones.

    Each recorded file is the output of `godeaux-cert ARGS --no-timestamp
    --json PATH`, with `--config` pointing at the listed config when there is
    one, and the run exits with the listed code; a change that alters any
    check, value or key order must re-record it.
    """
    for name, args, config, exit_code in GOLDEN_RUNS:
        args = args + ["--no-timestamp"]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        out = tmp_path / name
        assert run_cli(args + ["--json", str(out)]) == exit_code, name
        assert out.read_bytes() == Path(__file__).with_name(name).read_bytes(), name


def test_report_bytes_do_not_depend_on_the_bytecode_cache():
    """cli compiled fresh and cli as its .pyc holds it (a marshal round trip)
    print the same report. A frozenset constant reloaded from a .pyc can
    iterate in another order than a fresh compile's."""
    fresh = compile(Path(cli.__file__).read_text(), cli.__file__, "exec")
    texts = []
    for code in (fresh, marshal.loads(marshal.dumps(fresh))):
        module = {"__name__": "godeaux_cert._cli_copy", "__package__": "godeaux_cert"}
        exec(code, module)
        report = cli.VerificationReport()
        for name in ("monomials", "diophantine", "lattice", "counts", "rr"):
            report.extend(module["SUITE_FUNCS"][name]({}))
        texts.append(report.to_json(timestamp=False))
    assert texts[0] == texts[1]


def _fresh_interpreter(code, *args, timeout=60):
    """Run code in a new interpreter that imports the package from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *code, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_cold_and_warm_runs_agree(tmp_path):
    """lattice, counts and rr in a fresh interpreter, where every table is
    built on first use, print the same bytes as warm in-process runs."""
    for command in ("lattice", "counts", "rr"):
        cfg = cli.load_config(cli.build_parser().parse_args([command]))
        cli.run(command, cfg)
        warm = cli.run(command, cfg).to_json(timestamp=False)
        out = tmp_path / f"{command}.json"
        proc = _fresh_interpreter(
            ["-m", "godeaux_cert.cli", command], "--no-timestamp", "--json", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == warm.encode(), command


_LOADED_AFTER = """
import json, sys
from godeaux_cert import cli
if len(sys.argv) > 1:
    cli.main(sys.argv[1:])
lazy = ("godeaux_cert.pdo_algebra", "argparse", "datetime")
print(json.dumps([m for m in lazy if m in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["lattice"], ["argparse"]),
        (["pdo"], ["godeaux_cert.pdo_algebra", "argparse"]),
    ],
    ids=["import", "lattice", "pdo"],
)
def test_a_command_loads_only_what_it_runs(argv, loaded):
    """Importing cli loads neither pdo_algebra, argparse nor datetime; only
    pdo (and all) load pdo_algebra, and an untimestamped run no datetime."""
    proc = _fresh_interpreter(["-c", _LOADED_AFTER], *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


@pytest.mark.parametrize(
    "prime, message",
    [
        # 999999999989^2 is 1 mod 5: trial division would count to 10^12
        ("999999999978000000000121", "is not prime"),
        ("3317044064679887385961981", "is too large"),
    ],
)
def test_huge_prime_exits_two_promptly(prime, message):
    proc = _fresh_interpreter(["-m", "godeaux_cert.cli", "lattice", "--primes", prime], timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {prime} {message}")
