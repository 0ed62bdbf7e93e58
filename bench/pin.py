"""Write ``pinned.json``: the check ids each workload expects and the surface panel verdicts.

Run from the repository root: ``PYTHONPATH=src python3 bench/pin.py``.
It takes about twenty seconds, because the dense members are scanned by
brute force at q = 61.

Each panel verdict records how it was obtained:

- ``construction``: true for every member of the family (invariance), or
  forced by how the member was built (see ``PANEL``); the brute-force
  route is run as well and must agree.
- ``brute-force``: the brute-force scan over F_q-points at the commit named
  in ``pinned.json``, with no independent oracle.

Smoothness and transversality verdicts are F_q-point verdicts: "no singular
point with coordinates in F_q", which is what ``smoothness_check`` decides.
"""

from __future__ import annotations

import json
import subprocess
import sys

from godeaux_cert import cli, quintic_family

from workloads import LATTICE_RR_SUITES, PINNED_PATH, default_config

PANEL_PRIMES = (11, 61)  # 11 for the self-test, 61 for the workload

# kind -> verdicts fixed by construction (the rest are brute-force).
#   dense:    all 12 coefficients nonzero; nothing forced beyond invariance
#             and the pure-power criterion for a free action.
#   diagonal: a1 z1^5 + a8 z2^5 + a9 z3^5 + a10 z4^5 with every a nonzero
#             mod q; smooth and transversal since q != 5.
#   singular: sum_k a_k n_k = 0 over Z with all pure powers nonzero mod q,
#             so f and its partials vanish at (1:1:1:1): singular, yet the
#             action is free.
# The order matters to the workload: see workloads.SurfaceSweep.
PANEL = (
    ("dense0", "dense", (5, 6, 9, 1, 8, 4, 1, 3, 2, 6, 8, 4)),
    ("singular0", "singular", (-1, 2, -1, 5, 4, -5, -8, -1, 6, 7, -3, -5)),
    ("diagonal0", "diagonal", (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0)),
    ("dense1", "dense", (7, 9, 2, 4, 1, 4, 7, 5, 3, 7, 3, 2)),
    ("singular1", "singular", (8, -3, -4, -6, -7, 1, -5, 5, 4, 1, 5, 1)),
    ("diagonal1", "diagonal", (3, 0, 0, 0, 0, 0, 0, 5, 7, 2, 0, 0)),
)

CHECKS = ("invariance", "free_action", "smooth") + tuple(
    f"transversal.z{p}" for p in range(1, 5)
)


def by_construction(kind: str, coeffs) -> dict:
    """The verdicts a member's construction forces, at every prime of the panel."""
    pure = [coeffs[i] for i in quintic_family.PURE_POWER_INDICES]
    if any(a % q == 0 for a in pure for q in PANEL_PRIMES):
        raise ValueError("panel members need pure powers nonzero mod every panel prime")
    forced = {"invariance": True, "free_action": True}
    if kind == "diagonal":
        forced.update({c: True for c in CHECKS})
    elif kind == "singular":
        monomials = quintic_family.enumerate_monomials()
        for j in range(4):
            if sum(a * exps[j] for a, exps in zip(coeffs, monomials)) != 0:
                raise ValueError("singular member does not vanish to order 2 at (1:1:1:1)")
        forced["smooth"] = False
    return forced


def brute_force(coeffs, q: int) -> dict:
    gen = quintic_family.GroupElement.generator()
    out = {
        "invariance": quintic_family.invariance_check(coeffs, gen, q),
        "free_action": quintic_family.free_action_check(coeffs, q),
        "smooth": quintic_family.smoothness_check(coeffs, q),
    }
    for p in range(1, 5):
        out[f"transversal.z{p}"] = quintic_family.transversality_check(coeffs, p, q)
    return out


def pin_panel() -> list:
    panel = []
    for name, kind, coeffs in PANEL:
        forced = by_construction(kind, coeffs)
        verdicts = {}
        for q in PANEL_PRIMES:
            found = brute_force(coeffs, q)
            clash = {c for c in forced if forced[c] != found[c]}
            if clash:
                raise AssertionError(f"{name} at q{q}: brute force contradicts construction on {clash}")
            verdicts[str(q)] = found
        how = {c: "construction" if c in forced else "brute-force" for c in CHECKS}
        panel.append(
            {"name": name, "kind": kind, "coefficients": list(coeffs), "verdicts": verdicts, "how": how}
        )
    return panel


def pin_check_ids() -> dict:
    ids = {}
    for command in ("all", "pdo") + LATTICE_RR_SUITES:
        report = cli.run(command, default_config())
        if not report.overall_pass:
            raise AssertionError(f"{command} does not pass at the default configuration")
        ids[command] = [e.check_id for e in report.entries]
    return ids


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    pinned = {
        "commit": commit,
        "panel_primes": list(PANEL_PRIMES),
        "check_ids": pin_check_ids(),
        "panel": pin_panel(),
    }
    PINNED_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINNED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
