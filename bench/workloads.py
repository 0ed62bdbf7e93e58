"""The four benchmark workloads: inputs made from a seed, one timed call, a verdict check.

A workload is an object with three methods:

- ``inputs(i)`` builds the input of operation ``i`` from the workload seed
  (untimed, deterministic in ``(seed, i)``);
- ``run(inp)`` is the timed call into the program;
- ``verify(inp, out)`` returns ``None`` when the output is correct and an
  error message otherwise (untimed).

The pinned expectations (check ids, the surface panel and its verdicts) are
read from ``pinned.json`` beside this file; see ``pin.py`` for how they were
obtained.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

from godeaux_cert import cli, quintic_family

PINNED_PATH = Path(__file__).with_name("pinned.json")
SURFACE_PRIME = 61
PDO_T = (12, 16)
LATTICE_RR_SUITES = ("lattice", "counts", "rr")


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def default_config(**overrides) -> dict:
    cfg = {
        "primes": cli.DEFAULT_PRIMES,
        "coefficients": cli.FERMAT_COEFFS,
        "trials": cli.DEFAULT_TRIALS,
        "seed": cli.DEFAULT_SEED,
        "pdo_budget": {"T": cli.DEFAULT_T, "d_bound": cli.DEFAULT_D_BOUND},
    }
    cfg.update(overrides)
    return cfg


def op_rng(seed: int, i: int) -> Random:
    """The random stream of operation i; independent of how many ops ran before."""
    return Random(seed * 1_000_003 + i)


def statuses(entries) -> dict:
    return {e.check_id: e.status for e in entries}


def compare_statuses(got: dict, want: dict) -> str | None:
    missing = sorted(set(want) - set(got))
    if missing:
        return f"missing check ids {missing[:3]}"
    extra = sorted(set(got) - set(want))
    if extra:
        return f"unexpected check ids {extra[:3]}"
    wrong = sorted(k for k in want if got[k] != want[k])
    if wrong:
        k = wrong[0]
        return f"{len(wrong)} wrong statuses, first {k}: {got[k]} != {want[k]}"
    return None


def all_pass(ids) -> dict:
    return {k: "pass" for k in ids}


class AllDefault:
    """``cli.run("all")`` at the default configuration, plus the JSON report."""

    def __init__(self, seed: int, pinned: dict):
        self.cfg = default_config()
        self.want = all_pass(pinned["check_ids"]["all"])
        self.first_text = None

    def inputs(self, i: int) -> dict:
        return self.cfg

    def run(self, cfg: dict):
        report = cli.run("all", cfg)
        return report, report.to_json(timestamp=False)

    def verify(self, cfg: dict, out) -> str | None:
        report, text = out
        err = compare_statuses(statuses(report.entries), self.want)
        if err:
            return err
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            return "no-timestamp report differs from the first one of this run"
        return None


def translate(coeffs, t, monomials) -> tuple:
    """Coefficients of f(t1 z1, ..., t4 z4): a_k times prod t_j^{n_kj}."""
    out = []
    for a, exps in zip(coeffs, monomials):
        scale = 1
        for tj, n in zip(t, exps):
            scale *= tj ** n
        out.append(a * scale)
    return tuple(out)


def surface_expectation(member: dict, q: int) -> dict:
    """Expected status of every ``surface`` check id for one member at prime q."""
    verdicts = member["verdicts"][str(q)]
    want = {
        f"surface.invariance.q{q}": verdicts["invariance"],
        f"surface.free_action.q{q}": verdicts["free_action"],
        f"surface.smooth.q{q}": verdicts["smooth"],
        f"surface.free_action_routes.q{q}": True,
        "surface.family_dimension": True,
        "surface.weight_rank": True,
        "surface.invariant_planes": True,
    }
    for plane in range(1, 5):
        want[f"surface.transversal.q{q}.z{plane}"] = verdicts[f"transversal.z{plane}"]
    return {k: "pass" if v else "fail" for k, v in want.items()}


class SurfaceSweep:
    """``cli.run("surface")`` at one prime on seeded torus translates of the pinned panel.

    Operation i takes panel member ``i mod P``, so every seed runs the same
    mix; the seed only picks the translate z_j -> t_j z_j with
    1 <= t_j <= 10.  The panel alternates dense (slow), singular (fast: the
    scan stops at the first singular point) and diagonal (in between)
    members, so the median of five or more consecutive operations is a
    diagonal member's latency whatever their number, unless a translate puts
    every singular point late in the scan.
    """

    def __init__(self, seed: int, pinned: dict, q: int = SURFACE_PRIME):
        self.seed = seed
        self.panel = pinned["panel"]
        self.q = q
        self.monomials = quintic_family.enumerate_monomials()

    def inputs(self, i: int):
        member = self.panel[i % len(self.panel)]
        rng = op_rng(self.seed, i)
        t = [rng.randint(1, 10) for _ in range(4)]
        coeffs = translate(member["coefficients"], t, self.monomials)
        return member, self.q, default_config(primes=(self.q,), coefficients=coeffs)

    def run(self, inp):
        return cli.run("surface", inp[2])

    def verify(self, inp, report) -> str | None:
        member, q, _ = inp
        err = compare_statuses(statuses(report.entries), surface_expectation(member, q))
        return f"{member['name']} at q{q}: {err}" if err else None


class PdoProps:
    """``cli.run("pdo")`` with a per-operation seed, alternating T = 12 and T = 16."""

    def __init__(self, seed: int, pinned: dict):
        self.seed = seed
        self.want = all_pass(pinned["check_ids"]["pdo"])

    def inputs(self, i: int) -> dict:
        op_seed = op_rng(self.seed, i).randrange(2**31)
        T = PDO_T[i % len(PDO_T)]
        return default_config(seed=op_seed, pdo_budget={"T": T, "d_bound": cli.DEFAULT_D_BOUND})

    def run(self, cfg: dict):
        return cli.run("pdo", cfg)

    def verify(self, cfg: dict, report) -> str | None:
        err = compare_statuses(statuses(report.entries), self.want)
        return f"seed {cfg['seed']} T {cfg['pdo_budget']['T']}: {err}" if err else None


class LatticeRR:
    """``cli.run`` of lattice, counts and rr in turn, in one process."""

    def __init__(self, seed: int, pinned: dict):
        self.cfg = default_config(seed=seed)
        ids = [k for s in LATTICE_RR_SUITES for k in pinned["check_ids"][s]]
        self.want = all_pass(ids)

    def inputs(self, i: int) -> dict:
        return self.cfg

    def run(self, cfg: dict):
        return [cli.run(s, cfg) for s in LATTICE_RR_SUITES]

    def verify(self, cfg: dict, reports) -> str | None:
        got = {}
        for report in reports:
            got.update(statuses(report.entries))
        return compare_statuses(got, self.want)


WORKLOADS = {
    "all_default": AllDefault,
    "surface_sweep": SurfaceSweep,
    "pdo_props": PdoProps,
    "lattice_rr": LatticeRR,
}
