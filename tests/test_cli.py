"""CLI: exit codes, flag handling, determinism of JSON reports."""

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


def test_bad_coeff_count_exits_two(capsys):
    assert run_cli(["surface", "--coeffs", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "must have 12 entries, got 3" in err


def test_bad_prime_exits_two(capsys):
    assert run_cli(["surface", "--primes", "7"]) == 2
    assert "error" in capsys.readouterr().err


# Each case's id is its key, so adding a case renames no other.  The argsN
# ids are the positional ids the cases were first collected under.
_MALFORMED_INPUTS = {
    "args0-None": ["surface", "--primes", "21"],
    "args3-None": ["pdo", "--trials", "0"],
    "args4-None": ["pdo", "--trials", "-3"],
    "args19-None": ["surface", "--primes", "11,11"],
    # The argsN-configN cases first wrote their value to a config file; they
    # now give the same value through the flag.  A non-int --trials or
    # --seed is refused by argparse.
    "args2-config2": ["surface", "--coeffs", "1"],
    "args7-config7": ["pdo", "--trials="],
    "args8-config8": ["pdo", "--trials", "true"],
    "args9-config9": ["pdo", "--trials", "2.7"],
    "args10-config10": ["pdo", "--trials", "3", "--seed="],
    "args15-config15": ["surface", "--primes", "[11]"],
    "args16-config16": ["surface", "--primes", "11.5"],
    "args18-config18": ["surface", "--coeffs", "1,0,0,0,0,0,0,1,1,1,0,False"],
    "args20-config20": ["surface", "--primes", "31,11,31"],
    "args22-None": ["surface", "--primes", ","],
    "args26-None": ["surface", "--coeffs", "0,0,0,0,0,0,0,0,0,0,0,0"],
    "args27-None": ["surface", "--primes", "11", "--coeffs", "11,0,0,0,0,0,0,0,0,0,0,0"],
    # Random(-s) draws what Random(s) draws, so a negative seed is refused
    "args33-None": ["pdo", "--trials", "3", "--seed", "-1"],
    # an empty list is refused, not read as "use the defaults"
    "args34-None": ["surface", "--primes", ""],
    "args35-None": ["surface", "--coeffs", ""],
    # an empty item is refused, not skipped
    "primes_empty_item": ["surface", "--primes", "11,,31"],
    "primes_trailing_comma": ["surface", "--primes", "11,31,"],
    # an empty --json= path is tried, and refused, like any unwritable path
    "json_empty": ["monomials", "--json="],
}


@pytest.mark.parametrize("args", list(_MALFORMED_INPUTS.values()), ids=list(_MALFORMED_INPUTS))
def test_malformed_input_exits_two(capsys, args):
    # main() is called in-process: an uncaught exception (the traceback a
    # user would see) fails the test before the exit code is compared
    try:
        code, first = run_cli(args), "error:"
    except SystemExit as exc:  # argparse prints its usage line first
        code, first = exc.code, "usage: godeaux-cert"
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(first)
    assert err.splitlines()[-1].startswith(("error:", "godeaux-cert: error:"))


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


def test_run_that_exits_two_leaves_no_report(tmp_path, monkeypatch):
    """A run that exits 2 after main has tried the --json path removes the
    file main created there, and leaves an older file at the path as it was."""
    path = tmp_path / "r.json"

    def exits_two(args, cfg):
        assert path.exists()  # the path was tried before any check ran
        return 2

    monkeypatch.setattr(cli, "_run_and_report", exits_two)
    assert run_cli(["monomials", "--json", str(path)]) == 2
    assert not path.exists()
    path.write_text("old report")
    assert run_cli(["monomials", "--json", str(path)]) == 2
    assert path.read_text() == "old report"


def test_failing_report_write_exits_two(tmp_path, monkeypatch, capsys):
    """A --json path that main could open to append but the report cannot be
    written to exits 2 with the reason; a file main created there is removed,
    and an older file keeps its bytes."""
    path = tmp_path / "r.json"
    real_open = open

    def no_write(file, mode="r", *args, **kwargs):
        if mode == "w":
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_write, raising=False)
    assert run_cli(["monomials", "--json", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: Permission denied\n"
    assert not path.exists()
    path.write_bytes(b"old report")
    assert run_cli(["monomials", "--json", str(path)]) == 2
    assert path.read_bytes() == b"old report"


def _refused_by_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# text that int() refuses and that holds no comma, so it stays one list item
_NOT_INT = st.text(max_size=4).filter(lambda t: "," not in t and _refused_by_int(t))
_COEFFS = ["1"] * 12


def _coeffs_with(i, item):
    return ",".join(_COEFFS[:i] + [item] + _COEFFS[i + 1 :])


def _not_a_list(items):
    """The items written some other way than as one comma-separated list."""
    return st.one_of(
        st.sampled_from(" ;:|/").map(lambda sep: sep.join(items)),
        st.sampled_from(["[]", "()", "{}"]).map(lambda b: b[0] + ",".join(items) + b[1]),
    )


def _unknown_option(name):
    """True when argparse matches name to no option, not even as an abbreviation."""
    known = [s for a in cli.build_parser()._actions for s in a.option_strings]
    return not any(s.startswith(name) for s in known)


# One strategy per way a flag value can be malformed; each draws the flags
# after the command.  The --flag=value form keeps a value that starts with
# "-" from reading as an option.
_BAD_FLAGS = {
    "primes_empty": st.just(["--primes="]),
    "prime_not_an_int": st.builds(lambda v: [f"--primes=11,{v}"], _NOT_INT),
    "list_item_empty": st.one_of(
        st.sampled_from(["--primes=,11", "--primes=11,,31", "--primes=11,31,"]),
        st.builds(lambda i: f"--coeffs={_coeffs_with(i, '')}", st.integers(0, 11)),
    ).map(lambda flag: [flag]),
    "prime_repeated": st.builds(lambda q: [f"--primes={q},31,{q}"], st.sampled_from((11, 41))),
    "prime_not_1_mod_5_or_composite": st.builds(
        lambda q: [f"--primes=11,{q}"],
        st.integers(-100, 200).filter(lambda q: not (cli.is_prime(q) and q % 5 == 1)),
    ),
    "coefficients_wrong_count": st.builds(
        lambda n: [f"--coeffs={','.join(['1'] * n)}"], st.integers(0, 20).filter(lambda n: n != 12)
    ),
    "coefficient_not_an_int": st.builds(
        lambda i, v: [f"--coeffs={_coeffs_with(i, v)}"], st.integers(0, 11), _NOT_INT
    ),
    "coefficients_vanish_mod_a_prime": st.builds(
        lambda q, k: [f"--primes={q}", f"--coeffs={','.join([str(q * k)] * 12)}"],
        st.sampled_from((11, 31, 41)),
        st.integers(-3, 3),
    ),
    "trials_not_an_int": st.builds(lambda v: [f"--trials={v}"], _NOT_INT),
    "trials_below_one": st.builds(lambda v: [f"--trials={v}"], st.integers(-10, 0)),
    "seed_not_an_int": st.builds(lambda v: [f"--seed={v}"], _NOT_INT),
    "seed_negative": st.builds(lambda v: [f"--seed={v}"], st.integers(max_value=-1)),
    "primes_not_a_list": _not_a_list(["11", "31"]).map(lambda v: [f"--primes={v}"]),
    "coefficients_not_a_list": _not_a_list(_COEFFS).map(lambda v: [f"--coeffs={v}"]),
    # --config among them: the JSON config file is gone
    "unknown_key": st.one_of(
        st.just("--config"),
        st.text("abcdefghijklmnopqrstuvwxyz-_", min_size=1, max_size=8)
        .map(lambda k: f"--{k}")
        .filter(_unknown_option),
    ).map(lambda name: [f"{name}=1"]),
    # no flag sets the pdo budget; the CLI runs it at T = 12, d_bound = 6
    "pdo_budget_unknown_key": st.builds(
        lambda name, v: [f"{name}={v}"],
        st.sampled_from(["--T", "--x-precision", "--d-bound", "--d_bound", "--pdo-budget"]),
        st.integers(0, 20),
    ),
}


@pytest.mark.parametrize("kind", sorted(_BAD_FLAGS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_malformed_config_exits_two(capsys, kind, data):
    """Every malformed value of a flag that configures the run, and every
    option the parser does not know, exits 2 with an error line and runs no
    check; argparse itself refuses an unknown option and a non-int --trials
    or --seed, after its usage line."""
    flags = data.draw(_BAD_FLAGS[kind])
    try:
        code = run_cli(["monomials", *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith(("error:", "godeaux-cert: error:"))
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


def test_routes_check_counts_each_disagreement(monkeypatch):
    """A free-action table whose row at e1 also reads a2 disagrees with the
    coefficient criterion on exactly the samples where a8 a9 a10 != 0 and
    one of a1, a1 + a2 vanishes.  The member has a2 = 0, so its evaluation
    verdict is still the right one."""
    real_rows = cli.quintic_family._monomial_values()
    rows = [real_rows[0] + [(1, 1)]] + real_rows[1:]
    monkeypatch.setattr(cli.quintic_family, "_monomial_values", lambda: rows)
    cfg = cli.load_config(cli.build_parser().parse_args(["surface"]))
    got = {e.check_id: e for e in cli.suite_surface(cfg)}
    routes = []
    for q in cfg["primes"]:
        oracle = sum(
            all(a[i] % q for i in (7, 8, 9)) and (a[0] % q == 0) != ((a[0] + a[1]) % q == 0)
            for a in cli._sampled_vectors(cfg["seed"], q)
        )
        assert got[f"surface.free_action_routes.q{q}"].actual == oracle
        assert got[f"surface.free_action.q{q}"].status == "pass"
        routes.append(oracle)
    assert routes == [125, 54, 53]


def test_route_fault_on_the_member_is_a_report(monkeypatch, capsys):
    """With the row at e1 also reading a2, the member a1 = 1, a2 = 10 vanishes
    there mod 11 by evaluation though a1 != 0: the verdict fails the member's
    entry and counts in the routes entry, with no traceback."""
    real_rows = cli.quintic_family._monomial_values()
    rows = [real_rows[0] + [(1, 1)]] + real_rows[1:]
    monkeypatch.setattr(cli.quintic_family, "_monomial_values", lambda: rows)
    assert cli.main(["surface", "--primes", "11", "--coeffs", "1,10,0,0,0,0,0,1,1,1,0,0"]) == 1
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["[FAIL] surface.free_action.q11"].endswith("(expected True, got False)")
    assert lines["[FAIL] surface.free_action_routes.q11"].endswith("(expected 0, got 125)")


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


@pytest.mark.parametrize("q", [11, 31, 41, 61, 1000000021])
def test_digits_round_trip(q):
    size = q**12
    rng = Random(q)
    for n in (0, 1, q - 1, q, size // 2, size - 1, *(rng.randrange(size) for _ in range(5))):
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
    """Oracle: the Hilbert condition on every divisor x curve pair, each paired
    on its own and taken on the numerics of its own curve."""
    check = cli.rr_engine.prespectral_hilbert_check
    return sum(
        not check(D.numerics, curve.numerics, D.pair(curve), n_max=10)
        for D in cli.picard_lattice.divisors()
        for curve in curves
    )


def test_hilbert_condition_matches_per_curve_pairing(monkeypatch):
    """suite_rr pairs each divisor once per numerical class of curve; the count
    must equal pairing every curve on its own numerics, also when the curves
    fall in two classes."""
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
    # K + root has C^2 = -1, so every pair with a root curve fails and every
    # pair with a K curve passes: checked against the class (1, 1), the root
    # curves would pass wherever D.E pairs to zero with the root
    assert want == 2400
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


def test_class_runs_key_on_k_and_coordinates():
    """A run holds adjacent classes with one k and equal E8Vectors, also when
    the vectors were built apart; a change of k alone starts a new run."""
    pl = cli.picard_lattice
    c = pl.e8_roots()[0].c
    e, twin = pl.E8Vector(c), pl.E8Vector(list(c))
    assert e is not twin and e == twin
    classes = [pl.PicardClass(1, e, 0), pl.PicardClass(1, twin, 1), pl.PicardClass(2, twin, 2)]
    assert list(cli._class_runs(classes)) == [(classes[0], 2), (classes[2], 1)]


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
        0,
    ),
    ("golden_pdo_default.json", ["pdo", "--seed", "42", "--trials", "500"], 0),
    # the Fermat member at the default primes 11, 31 and 41
    ("golden_surface_default.json", ["surface"], 0),
    # a member singular at (1:1:1:1) by construction; its smoothness checks
    # fail.  The = form keeps argparse from reading -1,2,... as an option.
    (
        "golden_surface_singular0_q11_q31.json",
        ["surface", "--coeffs=-1,2,-1,5,4,-5,-8,-1,6,7,-3,-5", "--primes", "11,31"],
        1,
    ),
    # a diagonal member whose z1^5 coefficient vanishes mod 11 only: the
    # closed form's singular verdicts at q = 11, smooth at q = 31
    (
        "golden_surface_diagonal_vanishing_q11_q31.json",
        ["surface", "--coeffs=11,0,0,0,0,0,0,1,1,1,0,0", "--primes", "11,31"],
        1,
    ),
)


def _golden(name):
    return Path(__file__).with_name(name).read_bytes()


def test_report_bytes_match_golden(tmp_path):
    """Full reports of small runs are byte-identical to the recorded ones.

    Each recorded file of GOLDEN_RUNS is the output of `godeaux-cert ARGS
    --no-timestamp --json PATH`, and the run exits with the listed code.  The
    CLI runs pdo at T = 12; the T = 16 file is the report of cli.run on the
    flags' config with its pdo_budget T set to 16.  A change that alters any
    check, value or key order must re-record them.
    """
    for name, args, exit_code in GOLDEN_RUNS:
        out = tmp_path / name
        assert run_cli(args + ["--no-timestamp", "--json", str(out)]) == exit_code, name
        assert out.read_bytes() == _golden(name), name
    cfg = cli.load_config(cli.build_parser().parse_args(["pdo", "--seed", "7", "--trials", "200"]))
    cfg["pdo_budget"]["T"] = 16
    report = cli.run("pdo", cfg).to_json(timestamp=False)
    assert report.encode() == _golden("golden_pdo_seed7_trials200_T16.json")


def test_report_does_not_depend_on_trials_or_seed(tmp_path):
    """No pdo law samples, so --trials is only validated and recorded in the
    metadata, and each generic point and each free-action sample decides its
    check at any seed: the entries and the summary of `all` at --trials 1
    --seed 0 are those of the golden run at --trials 40 --seed 42."""
    out = tmp_path / "all.json"
    flags = ["--trials", "1", "--seed", "0", "--no-timestamp", "--json", str(out)]
    assert run_cli(["all", "--primes", "11", *flags]) == 0
    got, recorded = json.loads(out.read_bytes()), json.loads(_golden(GOLDEN_RUNS[0][0]))
    for key in ("entries", "summary"):
        assert got[key] == recorded[key], key


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
lazy = ("godeaux_cert.pdo_algebra", "argparse", "datetime", "dataclasses", "inspect")
print(json.dumps([m for m in lazy if m in sys.modules]))
"""


@pytest.mark.parametrize("command", ["import", *cli.SUITES, "all"])
def test_a_command_loads_only_what_it_runs(command):
    """Importing cli loads neither pdo_algebra, argparse nor datetime; only
    pdo and all load pdo_algebra, and an untimestamped run no datetime.
    No command loads dataclasses or inspect, which cost a fresh process
    about 11 ms of imports."""
    argv = [] if command == "import" else [command]
    loaded = ["godeaux_cert.pdo_algebra"] if command in ("pdo", "all") else []
    loaded += ["argparse"] if argv else []
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


def test_surface_passes_at_a_prime_near_a_billion():
    """The default member passes at q = 1000000021 within 60 s: a fifth root
    of unity found by scanning g = 2, 3, ... took 14-17 s there."""
    proc = _fresh_interpreter(
        ["-m", "godeaux_cert.cli", "surface", "--primes", "1000000021", "--no-timestamp"],
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
