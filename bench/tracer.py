"""Spans and counts around the public functions of the program's modules.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each name where its caller looks it up, and ``uninstall`` puts every
original back.  Names are patched in four kinds of places:

- module attributes, in every traced module that holds the function (a
  ``from .exact_arith import iter_projective_coords`` in ``quintic_family``
  is a second name for the same function, patched separately);
- the values of ``cli.SUITE_FUNCS``, which hold direct references;
- class attributes (``TruncatedOperator.__init__``,
  ``FieldElement.__post_init__``, ``SparsePolynomial.eval``,
  ``VerificationReport.to_json``);
- ``quintic_family.iter_projective_coords``, wrapped as a counting generator.

Spans are kept in memory as ``(op, name, start_ns, end_ns, parent)`` tuples,
where ``parent`` is the index of the enclosing span or -1, and written out
by ``write_spans`` (gzipped TSV) when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter

from godeaux_cert import (
    cli,
    exact_arith,
    pdo_algebra,
    picard_lattice,
    quintic_family,
    report,
    rr_engine,
)

MODULES = {
    "cli": cli,
    "quintic_family": quintic_family,
    "exact_arith": exact_arith,
    "picard_lattice": picard_lattice,
    "rr_engine": rr_engine,
    "pdo_algebra": pdo_algebra,
    "report": report,
}
MODULE_NAMES = {m.__name__: short for short, m in MODULES.items()}

# (owner class, attribute, span name); FieldElement.__post_init__ is counted, not spanned.
METHOD_SPANS = (
    (pdo_algebra.TruncatedOperator, "__init__", "pdo_algebra.TruncatedOperator"),
    (exact_arith.SparsePolynomial, "eval", "exact_arith.SparsePolynomial.eval"),
    (report.VerificationReport, "to_json", "report.VerificationReport.to_json"),
)
PDO_ERRORS = (pdo_algebra.PrecisionError, pdo_algebra.UndecidableOrderError)
PRIME_SPLIT = ("smoothness_check", "transversality_check")
TRACE_PRIMES = (11, 31, 41, 61)  # the defaults and surface_sweep's prime

_MARK = "__bench_wrapper__"


def public_functions():
    """Every public plain function defined in a traced module, with its span name."""
    seen = {}
    for mod in MODULES.values():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = MODULE_NAMES.get(obj.__module__)
            if home is not None and obj not in seen:
                seen[obj] = f"{home}.{obj.__name__}"
    return seen


def lookup_sites():
    """(container, key, current value) of every name the tracer may patch."""
    sites = []
    for mod in MODULES.values():
        for attr, obj in vars(mod).items():
            if not attr.startswith("__"):
                sites.append((mod, attr, obj))
    for name, fn in cli.SUITE_FUNCS.items():
        sites.append((cli.SUITE_FUNCS, name, fn))
    for owner, attr, _ in METHOD_SPANS:
        sites.append((owner, attr, owner.__dict__[attr]))
    owner = exact_arith.FieldElement
    sites.append((owner, "__post_init__", owner.__dict__["__post_init__"]))
    return sites


def installed_wrappers() -> int:
    """How many patchable names currently hold a tracer wrapper (0 when untraced)."""
    return sum(1 for _, _, obj in lookup_sites() if getattr(obj, _MARK, False))


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._patched: list = []
        self._last_error = None

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, name_of=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except PDO_ERRORS as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.counts["pdo_algebra.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name_of(args) if name_of else name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own (the root span of an operation)."""
        return self._span(name, fn)(*args)

    def _counted_points(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for pt in fn(*args, **kwargs):
                    n += 1
                    yield pt
            finally:
                counts["quintic_family.points_scanned"] += n

        setattr(counted, _MARK, True)
        return counted

    def _counted_post_init(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def post_init(obj):
            counts["exact_arith.FieldElement.constructed"] += 1
            fn(obj)

        setattr(post_init, _MARK, True)
        return post_init

    def _op_mul_counts(self, args, result) -> None:
        P, Q = args[0], args[1]
        self.counts["pdo_algebra.op_mul.term_pairs"] += len(P.coeffs) * len(Q.coeffs)
        self.counts["pdo_algebra.op_mul.terms_out"] += len(result.coeffs)

    def _wrapper_for(self, fn, name):
        if fn.__name__ in PRIME_SPLIT and fn.__module__ == quintic_family.__name__:
            return self._span(name, fn, name_of=lambda args: f"{name}.q{args[-1]}")
        if fn is pdo_algebra.op_mul:
            return self._span(name, fn, after=self._op_mul_counts)
        return self._span(name, fn)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, name in public_functions().items():
            if inspect.isgeneratorfunction(fn):
                continue  # a span would time only the generator's creation
            wrappers[id(fn)] = self._wrapper_for(fn, name)
        for container, key, obj in lookup_sites():
            if container is quintic_family and key == "iter_projective_coords":
                new = self._counted_points(obj)
            elif isinstance(container, type):
                continue
            else:
                new = wrappers.get(id(obj))
                if new is None:
                    continue
            self._patched.append((container, key, obj))
            _set(container, key, new)
        for owner, attr, name in METHOD_SPANS:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original))
        owner = exact_arith.FieldElement
        original = owner.__dict__["__post_init__"]
        self._patched.append((owner, "__post_init__", original))
        owner.__post_init__ = self._counted_post_init(original)

    def uninstall(self) -> None:
        while self._patched:
            container, key, original = self._patched.pop()
            _set(container, key, original)

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("idx\top\tname\tstart_ns\tend_ns\tparent\n")
            for idx, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{op}\t{name}\t{start}\t{end}\t{parent}\n")


# -- per-layer metrics ---------------------------------------------------

SUITE_SPANS = tuple(f"cli.suite_{s}" for s in cli.SUITES)
# spans with a traced child report self time as well
SPANS_WITH_SELF = SUITE_SPANS + (
    "pdo_algebra.op_mul",
    "pdo_algebra.change_variables",
    "quintic_family.free_action_check",
    "picard_lattice.divisors",
    "picard_lattice.partition_orbits",
    "picard_lattice.lattice_checks",
    "picard_lattice.theorem_counts",
)
SPANS_LEAF = (
    ("pdo_algebra.TruncatedOperator",)
    + tuple(f"quintic_family.{fn}.q{q}" for fn in PRIME_SPLIT for q in TRACE_PRIMES)
    + (
        "exact_arith.SparsePolynomial.eval",
        "picard_lattice.e8_roots",
        "picard_lattice.canonical_curves",
        "rr_engine.prespectral_hilbert_check",
        "report.VerificationReport.to_json",
    )
)
COUNTS = (
    "pdo_algebra.op_mul.term_pairs",
    "pdo_algebra.op_mul.terms_out",
    "pdo_algebra.errors",
    "quintic_family.points_scanned",
    "exact_arith.FieldElement.constructed",
)
TRACE_SUMMARY = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.suite_share_pct", "%", "higher"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.ops", "count", "higher"),
)


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in SPANS_WITH_SELF + SPANS_LEAF:
        specs.append((f"{span}.calls", "count/op", "lower"))
        specs.append((f"{span}.busy_ms", "ms/op", "lower"))
        if span in SPANS_WITH_SELF:
            specs.append((f"{span}.self_ms", "ms/op", "lower"))
    specs.extend((name, "count/op", "lower") for name in COUNTS)
    specs.extend(TRACE_SUMMARY)
    return specs


def aggregate(spans, counts, n_ops: int) -> dict:
    """Per-operation calls, busy and self time of every span name, plus the counts.

    Busy time counts only the outermost span of a name, so recursion is not
    counted twice; self time is busy time minus the time of direct children.
    """
    calls, busy, child = Counter(), Counter(), Counter()
    for op, name, start, end, parent in spans:
        calls[name] += 1
        dur = end - start
        p = parent
        nested = False
        while p >= 0:
            if spans[p][1] == name:
                nested = True
                break
            p = spans[p][4]
        if not nested:
            busy[name] += dur
        if parent >= 0:
            child[spans[parent][1]] += dur
    out = {}
    for span in SPANS_WITH_SELF + SPANS_LEAF:
        out[f"{span}.calls"] = calls[span] / n_ops
        out[f"{span}.busy_ms"] = busy[span] / 1e6 / n_ops
        if span in SPANS_WITH_SELF:
            out[f"{span}.self_ms"] = (busy[span] - child[span]) / 1e6 / n_ops
    for name in COUNTS:
        out[name] = counts[name] / n_ops
    return out
