"""CLI: exit codes, config handling, determinism of JSON reports."""

import json
from collections import Counter
from pathlib import Path

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


@pytest.mark.parametrize(
    "args, config",
    [
        (["surface", "--primes", "21"], None),
        (["surface"], {"primes": "11"}),
        (["surface"], {"coefficients": "1"}),
        (["pdo", "--trials", "0"], None),
        (["pdo", "--trials", "-3"], None),
        (["pdo", "--trials", "3"], {"pdo_budget": {"T": 2}}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"T": 6}}),
        (["pdo"], {"trials": None}),
        (["pdo"], {"trials": True}),
        (["pdo"], {"trials": 2.7}),
        (["pdo", "--trials", "3"], {"seed": None}),
        (["pdo", "--trials", "3"], {"pdo_budget": 5}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"t": 16}}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"T": 16.0}}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"d_bound": "6"}}),
        (["surface"], {"primes": [[11]]}),
        (["surface"], {"primes": [11.5]}),
        (["surface"], {"prime": [31]}),
        (["surface"], {"coefficients": [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, False]}),
        (["surface", "--primes", "11,11"], None),
        (["surface"], {"primes": [31, 11, 31]}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"d_bound": -5}}),
        (["surface", "--primes", ","], None),
        (["surface"], {"primes": []}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"T": 0}}),
        (["pdo", "--trials", "3"], {"pdo_budget": {"T": -3}}),
        (["surface", "--coeffs", "0,0,0,0,0,0,0,0,0,0,0,0"], None),
        (["surface", "--primes", "11", "--coeffs", "11,0,0,0,0,0,0,0,0,0,0,0"], None),
        # too small to decide an order: bold_ord raises UndecidableOrderError
        (["pdo"], {"pdo_budget": {"T": 7}}),
        (["pdo", "--trials", "100"], {"pdo_budget": {"T": 8}}),
    ],
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
    assert captured.err.startswith("error:")
    assert "[PASS]" not in captured.out


def test_wrong_orbit_size_is_a_failed_check(monkeypatch, capsys):
    orbits = cli.picard_lattice.partition_orbits()
    short = cli.picard_lattice.DivisorClassOrbit(frozenset(list(orbits[0].members)[:9]))
    monkeypatch.setattr(cli.picard_lattice, "partition_orbits", lambda: (short,) + orbits[1:])
    assert run_cli(["counts"]) == 1
    assert "[FAIL] counts.orbit_sizes:" in capsys.readouterr().out


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
