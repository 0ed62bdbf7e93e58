"""Command-line front end: run check suites and emit a verification report.

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 for usage or configuration errors.
"""

from __future__ import annotations

import itertools
import operator
import os
import sys
from random import Random
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

# pdo_algebra, the largest module, loads in suite_pdo and argparse in
# build_parser, so a command starts only what it runs.
from . import __version__, diophantine, picard_lattice, quintic_family, rr_engine
from .exact_arith import _require_int, is_prime
from .report import CheckEntry, VerificationReport, check

if TYPE_CHECKING:
    import argparse

DEFAULT_PRIMES = (11, 31, 41)
FERMAT_COEFFS = (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0)
DEFAULT_TRIALS = 500
DEFAULT_SEED = 42
DEFAULT_T = 12
DEFAULT_D_BOUND = 6


def suite_monomials(cfg: dict) -> List[CheckEntry]:
    mons = quintic_family.enumerate_monomials()
    entries = [
        check("monomials.count", "12 admissible degree-5 exponent tuples", 12, len(mons), "stated"),
        check(
            "monomials.canonical_order",
            "exhaustive search matches the canonical listing",
            True,
            mons == quintic_family._MONOMIAL_ORDER,
            "derived",
        ),
        check(
            "monomials.first",
            "listing starts with the pure z1 power",
            (5, 0, 0, 0),
            mons[0],
            "stated",
        ),
        check(
            "monomials.solver_agreement",
            "independent bounded solver returns the same set",
            set(mons),
            set(diophantine.solve_monomial_system()),
            "derived",
        ),
        check(
            "monomials.excluded_example",
            "(4,1,0,0) has weighted sum 6, not divisible by 5",
            False,
            (4, 1, 0, 0) in mons,
            "trivial",
        ),
    ]
    return entries


def suite_diophantine(cfg: dict) -> List[CheckEntry]:
    return [
        check(
            "dioph.monomial_count",
            "degree-and-weight system has 12 solutions",
            12,
            len(diophantine.solve_monomial_system()),
            "stated",
        ),
        check(
            "dioph.smooth_quadric",
            "5(m+n) - 2mn = 15 on the 6x6 box",
            frozenset({(0, 3), (3, 0), (5, 2), (2, 5)}),
            diophantine.solve_smooth_quadric_case(),
            "stated",
        ),
        check(
            "dioph.cone",
            "m(m-2n) + 5n = 15 on the 6x11 box",
            frozenset({(0, 3), (5, 2)}),
            diophantine.solve_cone_case(),
            "stated",
        ),
        check(
            "dioph.pullback_identity",
            "degree-5 cover scales the pairing 3 to 15",
            15,
            diophantine.intersection_identity(),
            "stated",
        ),
        check(
            "dioph.self_intersection",
            "(K + E)^2 = -1",
            -1,
            diophantine.self_intersection_downstairs(),
            "stated",
        ),
    ]


def suite_lattice(cfg: dict) -> List[CheckEntry]:
    return picard_lattice.lattice_checks()


def suite_counts(cfg: dict) -> List[CheckEntry]:
    counts = picard_lattice.theorem_counts()
    orbits = picard_lattice.partition_orbits()
    entries = [
        check(
            "counts.candidates",
            "1200 classes with E^2 = -2, E.K = 0",
            1200,
            counts["candidates"],
            "stated",
        ),
        check("counts.orbits", "120 blocks of size 10", 120, len(orbits), "derived"),
        check(
            "counts.orbit_sizes",
            "every block has exactly 10 members",
            True,
            all(len(o.members) == 10 for o in orbits),
            "derived",
        ),
        check(
            "counts.good_bound",
            "at most one excluded class per block leaves 1080",
            1080,
            counts["good_lower_bound"],
            "model-derived",
        ),
        check(
            "counts.excellent_bound",
            "three exclusions per block leave 840",
            840,
            counts["excellent_lower_bound"],
            "model-derived",
        ),
    ]
    D = picard_lattice.divisors()[0]
    C = picard_lattice.canonical_curves()[0]
    entries.extend(picard_lattice.verify_divisor_conditions(D, C))
    return entries


def _class_runs(
    classes: Iterable[picard_lattice.PicardClass],
) -> Iterator[Tuple[picard_lattice.PicardClass, int]]:
    """(first member, length) of each run of adjacent classes with one k and E's coordinates."""
    for _, run in itertools.groupby(classes, operator.attrgetter("k", "e.c")):
        members = list(run)
        yield members[0], len(members)


def suite_rr(cfg: dict) -> List[CheckEntry]:
    god = rr_engine.GODEAUX
    quotient = rr_engine.quotient_invariants(rr_engine.QUINTIC, 5)
    stated_curve = rr_engine.NumericalDivisor(1, 1)
    entries = [
        check(
            "rr.quotient_invariants",
            "free degree-5 quotient of (5,5,55) has (1,1,11)",
            (1, 1, 11),
            (quotient.chi, quotient.K2, quotient.e),
            "stated",
        ),
        check("rr.b2", "second Betti number e - 2", 9, god.b2, "stated"),
        check(
            "rr.noether",
            "12 chi = K^2 + e",
            god.e,
            rr_engine.noether_euler(god.chi, god.K2),
            "trivial",
        ),
        check(
            "rr.curve_genus",
            "adjunction on C^2 = C.K = 1",
            2,
            rr_engine.adjunction_genus(stated_curve),
            "stated",
        ),
    ]
    # pair, numerics and chi ignore the torsion tag, so each run of classes
    # with one (k, e) shares one of each; the Hilbert check still runs once
    # per divisor x curve, on the numerics of the curve paired.
    curves = picard_lattice.canonical_curves()
    curve_runs = [(curve, curve.numerics, n) for curve, n in _class_runs(curves)]
    chi_bad = hilbert_bad = 0
    for D, n_divisors in _class_runs(picard_lattice.divisors()):
        numerics = D.numerics
        if rr_engine.chi_divisor(god, numerics) != 0:
            chi_bad += n_divisors
        for curve, C, n_curves in curve_runs:
            d_dot_c = D.pair(curve)
            for _ in range(n_divisors * n_curves):
                if not rr_engine.prespectral_hilbert_check(numerics, C, d_dot_c, 10):
                    hilbert_bad += 1
    entries.append(
        check(
            "rr.chi_vanishes",
            "chi(O(D)) = 0 for all 1200 candidates",
            0,
            chi_bad,
            "derived",
        )
    )
    entries.append(
        check(
            "rr.hilbert_condition",
            "triangular-number growth on all 1200 x 4 pairs, every n >= 0",
            0,
            hilbert_bad,
            "derived",
        )
    )
    entries.append(
        check(
            "rr.growth_leading_coefficient",
            "section growth is quadratic with leading coefficient 1/2",
            True,
            rr_engine.growth_check(stated_curve, m_max=10),
            "derived",
        )
    )
    entries.append(
        check(
            "rr.degree_two_special",
            "chi of a degree-2 bundle on a genus-2 curve",
            1,
            rr_engine.chi_curve_sheaf(2, 2),
            "stated",
        )
    )
    return entries


def _digits(n: int, q: int) -> List[int]:
    """The 12 base-q digits of 0 <= n < q^12, least significant first.

    No digit table sized by q is kept: q may exceed 10^9.
    """
    vec = [0] * 12
    for i in range(12):
        vec[i] = n % q
        n //= q
    return vec


def _sampled_vectors(seed: int, q: int) -> Iterator[List[int]]:
    """The 1,000 coefficient vectors over F_q that suite_surface samples.

    One uniform integer below q^12 is one uniform vector of F_q^12; a draw
    of 0 becomes the unit vector at a drawn position.
    """
    draw, size = Random(seed * 100003 + q).randrange, q**12
    for _ in range(1000):
        n = draw(size)
        vec = _digits(n, q)
        if not n:
            vec[draw(12)] = 1
        yield vec


def suite_surface(cfg: dict) -> List[CheckEntry]:
    a = cfg["coefficients"]
    primes = cfg["primes"]
    seed = cfg["seed"]
    gen = quintic_family.GroupElement.generator()
    pure = operator.itemgetter(*quintic_family.PURE_POWER_INDICES)
    entries: List[CheckEntry] = []
    for q in primes:
        entries.append(
            check(
                f"surface.invariance.q{q}",
                "member is carried to itself by the order-5 symmetry",
                True,
                quintic_family.invariance_check(a, gen, q),
                "derived",
            )
        )
        entries.append(
            check(
                f"surface.free_action.q{q}",
                "no symmetry fixed point lies on the member",
                True,
                quintic_family.free_action_check(a, q),
                "derived",
            )
        )
        entries.append(
            check(
                f"surface.smooth.q{q}",
                "no singular point in the projective 3-space over this prime",
                True,
                quintic_family.smoothness_check(a, q),
                "derived",
            )
        )
        for plane in range(1, 5):
            entries.append(
                check(
                    f"surface.transversal.q{q}.z{plane}",
                    "restriction to the coordinate plane is a smooth curve",
                    True,
                    quintic_family.transversality_check(a, plane, q),
                    "derived",
                )
            )
        # f(e_i) is the coefficient of z_i^5
        disagreements = 0
        for vec in _sampled_vectors(seed, q):
            if quintic_family.free_action_check(vec, q) != all(pure(vec)):
                disagreements += 1
        entries.append(
            check(
                f"surface.free_action_routes.q{q}",
                "evaluation route matches the coefficient criterion, 1000 samples",
                0,
                disagreements,
                "derived",
            )
        )
    entries.append(
        check(
            "surface.family_dimension",
            "11 parameters minus a rank-3 torus action",
            8,
            quintic_family.family_dimension(),
            "stated",
        )
    )
    entries.append(
        check(
            "surface.weight_rank",
            "exponent-difference matrix has rank 3",
            3,
            quintic_family.weight_difference_rank(),
            "derived",
        )
    )
    entries.append(
        check(
            "surface.invariant_planes",
            "exactly the four coordinate planes are preserved",
            4,
            len(quintic_family.invariant_hyperplanes(gen)),
            "stated",
        )
    )
    return entries


def suite_pdo(cfg: dict) -> List[CheckEntry]:
    from . import pdo_algebra

    budget = cfg["pdo_budget"]
    return pdo_algebra.run_property_suite(
        trials=cfg["trials"],
        seed=cfg["seed"],
        x_precision=budget["T"],
        d_bound=budget["d_bound"],
    )


SUITE_FUNCS = {
    "monomials": suite_monomials,
    "diophantine": suite_diophantine,
    "lattice": suite_lattice,
    "counts": suite_counts,
    "rr": suite_rr,
    "surface": suite_surface,
    "pdo": suite_pdo,
}
SUITES = tuple(SUITE_FUNCS)


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from exc


def load_config(args: argparse.Namespace) -> dict:
    cfg = {
        "primes": DEFAULT_PRIMES,
        "coefficients": FERMAT_COEFFS,
        "trials": DEFAULT_TRIALS if args.trials is None else args.trials,
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
        "pdo_budget": {"T": DEFAULT_T, "d_bound": DEFAULT_D_BOUND},
    }
    # an empty list is an error in _parse_int_list, not a request for the defaults
    if args.primes is not None:
        cfg["primes"] = _parse_int_list(args.primes)
    if args.coeffs is not None:
        cfg["coefficients"] = _parse_int_list(args.coeffs)
    n = len(cfg["coefficients"])
    if n != 12:
        raise ValueError(f"coefficient vector must have 12 entries, got {n}")
    repeated = sorted({q for q in cfg["primes"] if cfg["primes"].count(q) > 1})
    if repeated:
        raise ValueError(f"repeated prime(s): {', '.join(map(str, repeated))}")
    for q in cfg["primes"]:
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        if q % 5 != 1:
            raise ValueError(f"prime {q} is not 1 mod 5; no order-5 symmetry exists")
        if not any(v % q for v in cfg["coefficients"]):
            raise ValueError(f"every coefficient vanishes mod the prime {q}")
    # Random(-s) draws what Random(s) draws, so the report would name a seed it did not use
    _require_int("trials", cfg["trials"], 1)
    _require_int("seed", cfg["seed"], 0)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(
        prog="godeaux-cert",
        description="Exact finite certification checks for a family of "
        "quotient surfaces and a truncated operator-algebra model.",
    )
    p.add_argument("command", choices=("all",) + SUITES, help="check suite to run")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.add_argument("--primes", help="comma-separated primes, each 1 mod 5")
    p.add_argument("--coeffs", help="12 comma-separated integer coefficients")
    p.add_argument("--trials", type=int, help="at least 1; recorded in the report, sizes no check")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp for byte-identical reports",
    )
    return p


def run(command: str, cfg: dict) -> VerificationReport:
    report = VerificationReport(
        metadata={
            "tool": "godeaux-cert",
            "version": __version__,
            "command": command,
            "primes": list(cfg["primes"]),
            "coefficients": list(cfg["coefficients"]),
            "trials": cfg["trials"],
            "seed": cfg["seed"],
            "pdo_budget": dict(cfg["pdo_budget"]),
        }
    )
    names = SUITES if command == "all" else (command,)
    for name in names:
        report.extend(SUITE_FUNCS[name](cfg))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    created = False
    if args.json is not None:
        created = not os.path.exists(args.json)
        try:
            # An unwritable path fails here, before any check runs; append
            # mode leaves an old report at the path untouched.
            open(args.json, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror}", file=sys.stderr)
            return 2
    code = 2
    try:
        code = _run_and_report(args, cfg)
    finally:
        if code == 2 and created:
            os.remove(args.json)  # no empty or partial report is left behind
    return code


def _run_and_report(args: argparse.Namespace, cfg: dict) -> int:
    report = run(args.command, cfg)
    for e in report.entries:
        mark = {"pass": "PASS", "fail": "FAIL", "undecidable": "UNDECIDED"}[e.status]
        line = f"[{mark}] {e.check_id}: {e.reference}"
        if e.status == "fail":
            line += f" (expected {e.expected!r}, got {e.actual!r})"
        print(line)
    c = report.counts
    print(
        f"{c['pass']} passed, {c['fail']} failed, {c['undecidable']} undecidable "
        f"-> {'PASS' if report.overall_pass else 'FAIL'}"
    )
    if args.json is not None:
        payload = report.to_json(timestamp=not args.no_timestamp)
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
