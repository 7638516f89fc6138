"""Spans and counters for the rootheight package, installed from outside it.

``Tracer.install()`` wraps the package's public functions, and counts the
kernel methods of its exact-arithmetic classes, in the process that imports
this module.  The package itself is not edited.  Names imported by value
(for example ``identities.det`` or ``cli.build``) are replaced in every
importing module, so each call is seen once whichever module makes it.

Every wrapped callable keeps a record ``[calls, total_ns, self_ns]`` under a
``<module>.<name>`` key.  A span (a public function) times each call; its
self time is its duration minus the time of the spans nested in it, so the
self times of one process add up to the time spent inside spans.  A counter
(a kernel method such as ``CycNum.__mul__`` or ``mat_mul``, listed in
``COUNTED``) only counts its calls and keeps 0 for both times: timing
90,000 small calls would cost more than they do.  Their time is self time
of the span that calls them.  ``Fraction.__new__`` is counted the same way.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

MODULES = ("exactalg", "numth", "linalg", "rootsys", "identities", "cli")
# Separates the traced CLI's trace summary from its own stderr.
TRACE_MARK = "\nbench-trace "

# (module, attribute path, record name); the attribute path may name a method.
WRAPPED = (
    ("exactalg", "CycNum.__mul__", "exactalg.cyc_mul"),
    ("exactalg", "CycNum.inverse", "exactalg.cyc_inverse"),
    ("exactalg", "Polynomial.__mul__", "exactalg.poly_mul"),
    ("exactalg", "Polynomial.__rmul__", "exactalg.poly_mul"),
    ("exactalg", "Polynomial.__divmod__", "exactalg.poly_divmod"),
    ("exactalg", "RationalFunction.__add__", "exactalg.ratfun_add"),
    ("exactalg", "RationalFunction.__radd__", "exactalg.ratfun_add"),
    ("exactalg", "poly_gcd", "exactalg.poly_gcd"),
    ("exactalg", "poly_arith", "exactalg.poly_arith"),
    ("exactalg", "cyc_eval", "exactalg.cyc_eval"),
    ("exactalg", "ratfun_normalize", "exactalg.ratfun_normalize"),
    ("exactalg", "poly_str", "exactalg.poly_str"),
    ("numth", "divisors", "numth.divisors"),
    ("numth", "mobius", "numth.mobius"),
    ("numth", "totient", "numth.totient"),
    ("numth", "ramanujan_sum", "numth.ramanujan_sum"),
    ("numth", "ramanujan_sum_checked", "numth.ramanujan_sum_checked"),
    ("numth", "cyclotomic_poly", "numth.cyclotomic_poly"),
    ("numth", "psi_poly", "numth.psi_poly"),
    ("numth", "gcd_count", "numth.gcd_count"),
    ("numth", "is_cohen", "numth.is_cohen"),
    ("numth", "cyclotomic_discriminant", "numth.cyclotomic_discriminant"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "charpoly_int", "linalg.charpoly_int"),
    ("linalg", "FractionLU.__init__", "linalg.lu_factor"),
    ("linalg", "FractionLU.solve", "linalg.lu_solve"),
    ("rootsys", "build", "rootsys.build"),
    ("rootsys", "cartan_matrix", "rootsys.cartan_matrix"),
    ("rootsys", "coxeter_element", "rootsys.coxeter_element"),
    ("rootsys", "factor_exponents", "rootsys.factor_exponents"),
    ("rootsys", "power_sums", "rootsys.power_sums"),
    ("rootsys", "multiplicities", "rootsys.multiplicities"),
    ("rootsys", "factorization_string", "rootsys.factorization_string"),
    ("rootsys", "mat_mul", "rootsys.mat_mul"),
    ("rootsys", "weyl_length_gf_bruteforce", "rootsys.weyl_bfs"),
    ("rootsys", "weyl_length_gf_product", "rootsys.weyl_product"),
    ("identities", "run_suite", "identities.run_suite"),
    ("identities", "run_check", "identities.run_check"),
    ("identities", "lagrange_primitive_roots", "identities.lagrange_primitive_roots"),
    ("identities", "lagrange_all_roots", "identities.lagrange_all_roots"),
    ("identities", "munagi_decompose", "identities.munagi_decompose"),
    ("identities", "singularity_data", "identities.singularity_data"),
    ("identities", "b_poly", "identities.b_poly"),
    ("identities", "exponent_poly", "identities.exponent_poly"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_info", "cli.cmd_info"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "cmd_munagi", "cli.cmd_munagi"),
    ("cli", "_dump_json", "cli.json_dump"),
)


# Kernel methods: counted, not timed.
COUNTED = frozenset({
    "exactalg.cyc_mul", "exactalg.cyc_inverse", "exactalg.poly_mul",
    "exactalg.poly_divmod", "exactalg.ratfun_add", "rootsys.mat_mul",
})


def _run_check_name(args, kwargs):
    check_id = args[1] if len(args) > 1 else kwargs["check_id"]
    return f"identities.run_check[{check_id}]"


# Record names whose inputs are also collected, to report distinct inputs
# per call: the key each call is identified by.
DISTINCT = {
    "exactalg.cyc_inverse": lambda args, kwargs: (args[0].order, args[0].coeffs),
    "numth.ramanujan_sum": lambda args, kwargs: (args, tuple(sorted(kwargs.items()))),
}


class Tracer:
    """In-memory span records for one process; see the module docstring."""

    def __init__(self):
        self.records = {}
        self.distinct = {name: set() for name in DISTINCT}
        self.fraction_new = 0
        self.bfs_products = 0
        self.bfs_elements = 0
        self._stack = []

    def _count(self, fn, name):
        rec = self.records.setdefault(name, [0, 0, 0])
        key_of = DISTINCT.get(name)
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            rec[0] += 1
            if key_of is not None:
                seen.add(key_of(args, kwargs))
            return fn(*args, **kwargs)

        return counter

    def _wrap(self, fn, name):
        if name in COUNTED:
            return self._count(fn, name)
        records = self.records
        stack = self._stack
        clock = time.perf_counter_ns
        name_of = _run_check_name if name == "identities.run_check" else None
        key_of = DISTINCT.get(name)
        seen = self.distinct.get(name)
        if name_of is None:
            fixed = records.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = fixed if name_of is None else records.setdefault(
                name_of(args, kwargs), [0, 0, 0])
            if key_of is not None:
                seen.add(key_of(args, kwargs))
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]

        return wrapper

    def _wrap_bfs(self, fn):
        """The Weyl BFS, also counting the matrix products it makes per
        group element it enumerates."""
        mat_mul = self.records.setdefault("rootsys.mat_mul", [0, 0, 0])
        from rootheight.rootsys import weyl_order

        @functools.wraps(fn)
        def wrapper(rs, *args, **kwargs):
            before = mat_mul[0]
            result = fn(rs, *args, **kwargs)
            self.bfs_products += mat_mul[0] - before
            self.bfs_elements += weyl_order(rs)
            return result

        return wrapper

    def _count_fractions(self):
        original = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)

    def install(self):
        """Import the package and wrap everything listed in ``WRAPPED``."""
        import importlib

        mods = {m: importlib.import_module(f"rootheight.{m}") for m in MODULES}
        package = [mod for key, mod in sys.modules.items()
                   if key == "rootheight" or key.startswith("rootheight.")]
        for module, path, name in WRAPPED:
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name)
            if name == "rootsys.weyl_bfs":
                wrapped = self._wrap_bfs(wrapped)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        self._count_fractions()

    def summary(self):
        """JSON-ready totals for this process."""
        from rootheight.exactalg import _context

        return {
            "records": self.records,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "fraction_new": self.fraction_new,
            "context_misses": _context.cache_info().misses,
            "bfs_products": self.bfs_products,
            "bfs_elements": self.bfs_elements,
        }
