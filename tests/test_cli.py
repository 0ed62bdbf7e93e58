"""CLI: exit codes, config handling, determinism of JSON reports."""

import json
from pathlib import Path

import pytest

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
    assert "error" in capsys.readouterr().err


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


def test_vanishing_coefficients_name_the_prime(capsys):
    # nonzero mod 31, zero mod 11
    assert run_cli(["surface", "--primes", "31,11", "--coeffs", "11,0,0,0,0,0,0,0,0,0,0,22"]) == 2
    assert "mod the prime 11" in capsys.readouterr().err


def test_unwritable_json_path_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert run_cli(["monomials", "--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(path) in err


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
