"""Outside-in tracer: spans around the library's public functions.

The tracer replaces each traced function under every name it is bound to
in the ``recip`` modules (``from ... import`` copies a binding, so patching
the defining module alone would miss calls made through the copy).
Recursive calls resolve through the patched module global and are traced
too.  Spans are kept in memory as (name, start, end, parent, operation) and
written out at the end of the run; per-name call counts and self times
(duration minus the time covered by child spans) are accumulated as spans
close.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

# metric prefix -> (module, attribute); module functions.
FUNCTIONS = {
    "laurent.poly_gcd": ("laurent", "poly_gcd"),
    "ratfunc.sigma_map": ("ratfunc", "sigma_map"),
    "parse.parse_ratfunc": ("parse", "parse_ratfunc"),
    "cli.main": ("cli", "main"),
    "semigroup.ns_create": ("semigroup", "ns_create"),
    "semigroup.derive_sprime": ("semigroup", "derive_sprime"),
    "membership.decide": ("membership", "decide_membership"),
    "membership.brute_force_witness": ("membership", "brute_force_witness"),
    "linsolve.solve_affine": ("linsolve", "solve_affine"),
    "linsolve.fm_witness": ("linsolve", "fm_witness"),
    "dimension.si_witness": ("dimension", "si_witness"),
    "dimension.dimension_report": ("dimension", "dimension_report"),
    "valuation.euclid_divide": ("valuation", "euclid_divide"),
    "valuation.lex_valuation": ("valuation", "lex_valuation"),
    "dplusm.kplusm_membership": ("dplusm", "kplusm_membership"),
    "egyptian.greedy_egyptian": ("egyptian", "greedy_egyptian"),
}

# metric prefix -> (module, class, method); operators are aliased
# (__rmul__ = __mul__), and every alias is patched.
METHODS = {
    "laurent.mul": ("laurent", "LaurentPolynomial", "__mul__"),
    "ratfunc.init": ("ratfunc", "RationalFunction", "__init__"),
    "ratfunc.add": ("ratfunc", "RationalFunction", "__add__"),
    "ratfunc.mul": ("ratfunc", "RationalFunction", "__mul__"),
}

# Per-layer metric -> (end-to-end metric it should move, workload).
MOVES = {
    "laurent.poly_gcd": ("ops_per_s, op_tail_ms, setup_s", "closure; op_p50_ms on cli_mix"),
    "laurent.mul": ("op_p50_ms", "cli_mix, closure"),
    "ratfunc.init": ("op_p50_ms", "cli_mix, closure"),
    "ratfunc.add": ("op_p50_ms", "cli_mix, closure"),
    "ratfunc.mul": ("op_p50_ms", "cli_mix, closure"),
    "ratfunc.den_terms_max": ("op_p50_ms", "cli_mix, closure"),
    "ratfunc.sigma_map": ("ops_per_s", "closure"),
    "parse.parse_ratfunc": ("op_p50_ms", "cli_mix"),
    "cli.main": ("op_p50_ms", "cli_mix"),
    "semigroup": ("ops_per_s, op_tail_ms, peak_rss_mb", "sprime_ladder"),
    "membership.decide": ("op_tail_ms", "sprime_ladder"),
    "linsolve.solve_affine": ("op_tail_ms", "sprime_ladder"),
    "linsolve.fm_witness": ("ops_per_s, op_tail_ms", "strata"),
    "dimension": ("ops_per_s, op_tail_ms", "strata"),
    "membership.brute_force_witness": ("op_p50_ms", "cli_mix"),
    "valuation": ("op_p50_ms", "cli_mix"),
    "dplusm": ("op_p50_ms", "cli_mix"),
    "egyptian": ("op_p50_ms", "cli_mix"),
    "trace": ("none: tracing cost of the traced run", "all"),
}


def moves(metric: str) -> tuple[str, str]:
    """The (end-to-end metric, workload) entry for a per-layer metric,
    matched on its longest listed prefix."""
    parts = metric.split(".")
    for k in range(len(parts), 0, -1):
        key = ".".join(parts[:k])
        if key in MOVES:
            return MOVES[key]
    raise KeyError(metric)


def _bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in poly.terms()),
        default=0,
    )


def _degree(poly) -> int:
    return 0 if poly.is_zero() else poly.degree()


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` patch
    and restore the library."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []  # indices of open spans
        self._names: list[str] = []  # names of open spans
        self._child: list[float] = []  # time covered by children of each open span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack, names, child = self.spans, self._stack, self._names, self._child
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and name != "op":
                return fn(*args, **kwargs)  # outside an operation: checks, set-up
            parent = stack[-1] if stack else -1
            caller = names[-1] if names else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            names.append(name)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                covered = child.pop()
                if child:
                    child[-1] += end - start
                spans[index] = (name, start, end, parent, self.op)
                calls[name] += 1
                self_s[name] += end - start - covered
            if observe is not None:
                observe(args, result, caller)
            return result

        return traced

    def operation(self, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op += 1
        return self._wrap("op", fn)(*args)

    # -- observers: counts taken where the work happens ------------------

    def _gauge_max(self, key, value):
        if value > self.gauges[key]:
            self.gauges[key] = value

    def _observe_gcd(self, args, result, caller):
        a, b = args
        self.gauges["gcd_nontrivial"] += not result.is_constant()
        self._gauge_max("laurent.poly_gcd.in_deg_max", max(_degree(a), _degree(b)))
        self._gauge_max("laurent.poly_gcd.in_bits_max", max(_bits(a), _bits(b)))

    def _observe_init(self, args, result, caller):
        self._gauge_max("ratfunc.den_terms_max", len(args[0].den))

    def _observe_sprime(self, args, result, caller):
        self._gauge_max("semigroup.sprime_conductor_max", result.conductor)

    def _observe_solve(self, args, result, caller):
        rows = args[0]
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self._gauge_max("membership.decide.system_cells_max", cells)

    def _observe_fm(self, args, result, caller):
        if caller != "linsolve.fm_witness":
            self.gauges["fm_top_tried"] += 1
            self.gauges["fm_top_feasible"] += result is not None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        observers = {
            "laurent.poly_gcd": self._observe_gcd,
            "ratfunc.init": self._observe_init,
            "semigroup.derive_sprime": self._observe_sprime,
            "linsolve.solve_affine": self._observe_solve,
            "linsolve.fm_witness": self._observe_fm,
        }
        modules = [getattr(lib, name) for name in lib.MODULES] + [lib.package]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(getattr(lib, module), attr)
            traced = self._wrap(name, original, observers.get(name))
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, traced)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(getattr(lib, module), cls_name)
            original = cls.__dict__[attr]
            traced = self._wrap(name, original, observers.get(name))
            for binding, value in list(vars(cls).items()):
                if value is original:
                    self._patch(cls, binding, traced)

    def _patch(self, owner, binding, value) -> None:
        self._restore.append((owner, binding, getattr(owner, binding)))
        setattr(owner, binding, value)

    def uninstall(self) -> None:
        for owner, binding, value in reversed(self._restore):
            setattr(owner, binding, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_values(self, ops: int, cache_hits: int, cache_misses: int,
                     scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics, with counts and self times per operation;
        self times are multiplied by ``scale``."""
        values: dict[str, float] = {}
        for name in list(FUNCTIONS) + list(METHODS):
            values[f"{name}.calls"] = self.calls[name] / ops
            values[f"{name}.self_s"] = self.self_s[name] * scale / ops
        gcd_calls = self.calls["laurent.poly_gcd"]
        values["laurent.poly_gcd.nontrivial_frac"] = (
            self.gauges["gcd_nontrivial"] / gcd_calls if gcd_calls else 0.0
        )
        tried = self.gauges["fm_top_tried"]
        values["linsolve.fm_witness.feasible_frac"] = (
            self.gauges["fm_top_feasible"] / tried if tried else 0.0
        )
        lookups = cache_hits + cache_misses
        values["semigroup.derive_sprime.cache_hit_frac"] = cache_hits / lookups if lookups else 0.0
        for key in (
            "laurent.poly_gcd.in_deg_max",
            "laurent.poly_gcd.in_bits_max",
            "ratfunc.den_terms_max",
            "semigroup.sprime_conductor_max",
            "membership.decide.system_cells_max",
        ):
            values[key] = self.gauges[key]
        return values

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines:
        index, parent, operation, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index\tparent\top\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    f"{index}\t{parent}\t{op}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\n"
                )
