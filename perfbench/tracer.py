"""Per-layer tracing of rinehart, installed from outside the package.

``Tracer.install()`` replaces public functions and methods of the
``rinehart.*`` modules with wrappers.  A wrapped function is rebound in
every module that imported it (``suites.omega_extract`` as well as
``tensorqp.omega_extract``); a method is replaced on its class.

Each span records calls, inclusive seconds (outermost activation only, so
recursion is not counted twice) and self seconds (minus the time of
wrapped callees).  ``Scalar`` arithmetic is counted, not timed: it runs
about a million times per workload.  Everything stays in memory until
``export()``.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (module, attribute or Class.method, span name)
SPANS = (
    ("superpoly", "SuperPoly.__mul__", "superpoly.mul"),
    ("superpoly", "derive", "superpoly.derive"),
    ("superpoly", "shifted_form", "superpoly.shifted_form"),
    ("superpoly", "filt_degree", "superpoly.filt_degree"),
    ("vectorfields", "vf_bracket", "vectorfields.vf_bracket"),
    ("vectorfields", "VectorField.apply", "vectorfields.apply"),
    ("vectorfields", "qp_bracket", "vectorfields.qp_bracket"),
    ("smash", "smash_commutator", "smash.smash_commutator"),
    ("smash", "theta_project", "smash.theta_project"),
    ("smash", "psi_map", "smash.psi_map"),
    ("glmatrix", "gl_bracket", "glmatrix.gl_bracket"),
    ("glmodules", "rep_check", "glmodules.rep_check"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "matmul", "linalg.matmul"),
    ("tensorqp", "omega_extract", "tensorqp.omega_extract"),
    ("tensorqp", "QPStructure.psi", "tensorqp.psi"),
    ("tensorqp", "t_act", "tensorqp.t_act"),
    ("tensorqp", "theta_transport", "tensorqp.theta_transport"),
    ("tensorqp", "induced_gl_module", "tensorqp.induced_gl_module"),
    ("parser", "parse_element", "parser.parse_element"),
    ("parser", "format_element", "parser.format_element"),
)

COUNTS = (
    "scalars.ops", "scalars.mul_calls", "scalars.div_calls", "scalars.nonint",
    "scalars.float_results", "superpoly.mul.term_pairs", "linalg.rref.cells",
    "linalg.rref.nonzero", "tensorqp.omega_extract.distinct",
)
PEAKS = (
    "scalars.max_bits", "vectorfields.vf_bracket.max_terms",
    "smash.smash_commutator.max_terms", "linalg.rref.max_rows",
    "linalg.rref.max_cols", "tensorqp.omega_extract.basis_len",
)

# Scalar methods that do arithmetic themselves; __rsub__ and
# __rtruediv__ delegate to __sub__ and __truediv__ and are counted there.
SCALAR_OPS = {
    "__add__": None, "__radd__": None, "__sub__": None, "__neg__": None,
    "__mul__": "scalars.mul_calls", "__rmul__": "scalars.mul_calls",
    "__truediv__": "scalars.div_calls",
}


def _rebind(orig, wrapper):
    """Replace ``orig`` by ``wrapper`` wherever a rinehart module holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "rinehart" or name.startswith("rinehart."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, incl, self, depth]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.peaks = dict.fromkeys(PEAKS, 0)
        self._open: list[float] = []  # callee seconds of each open span
        self._omega_inputs: set = set()

    def span(self, name, fn, after=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec[0] += 1
            rec[3] += 1
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                dt = clock() - t0
                rec[2] += dt - open_spans.pop()
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += dt
                if open_spans:
                    open_spans[-1] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def scalar_op(self, fn, key):
        counts, peaks = self.counts, self.peaks

        def wrapper(*args):
            r = fn(*args)
            if r is NotImplemented:
                return r
            counts["scalars.ops"] += 1
            if key is not None:
                counts[key] += 1
            nonint = False
            for x in (r.re, r.im):
                if isinstance(x, int):
                    bits = x.bit_length()
                elif isinstance(x, Fraction):
                    if x.denominator != 1:
                        nonint = True
                    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                else:
                    if isinstance(x, (float, complex)):
                        counts["scalars.float_results"] += 1
                    continue
                if bits > peaks["scalars.max_bits"]:
                    peaks["scalars.max_bits"] = bits
            if nonint:
                counts["scalars.nonint"] += 1
            return r

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-span extra counters --

    def _peak(self, key):
        peaks = self.peaks

        def after(args, result):
            if len(result.terms) > peaks[key]:
                peaks[key] = len(result.terms)

        return after

    def _after_mul(self, args, result):
        lhs, rhs = args
        if result is not NotImplemented and hasattr(rhs, "terms"):
            self.counts["superpoly.mul.term_pairs"] += len(lhs.terms) * len(rhs.terms)

    def _after_rref(self, args, result):
        a = args[0]
        rows = len(a)
        cols = len(a[0]) if rows else 0
        self.counts["linalg.rref.cells"] += rows * cols
        self.counts["linalg.rref.nonzero"] += sum(1 for row in a for x in row if x)
        self.peaks["linalg.rref.max_rows"] = max(self.peaks["linalg.rref.max_rows"], rows)
        self.peaks["linalg.rref.max_cols"] = max(self.peaks["linalg.rref.max_cols"], cols)

    def _after_omega(self, args, result):
        basis, S = args
        key = (
            S.sig, repr(S.mu), id(S.omega),
            tuple(frozenset(v.terms.items()) for v in basis),
        )
        if key not in self._omega_inputs:
            self._omega_inputs.add(key)
            self.counts["tensorqp.omega_extract.distinct"] += 1
        peak = "tensorqp.omega_extract.basis_len"
        self.peaks[peak] = max(self.peaks[peak], len(basis))

    def install(self):
        import rinehart  # noqa: F401  (loads every submodule)
        from rinehart import scalars, suites

        after = {
            "superpoly.mul": self._after_mul,
            "vectorfields.vf_bracket": self._peak("vectorfields.vf_bracket.max_terms"),
            "smash.smash_commutator": self._peak("smash.smash_commutator.max_terms"),
            "linalg.rref": self._after_rref,
            "tensorqp.omega_extract": self._after_omega,
        }
        for modname, attr, name in SPANS:
            mod = sys.modules[f"rinehart.{modname}"]
            owner, _, meth = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                setattr(cls, meth, self.span(name, vars(cls)[meth], after.get(name)))
            else:
                orig = getattr(mod, attr)
                _rebind(orig, self.span(name, orig, after.get(name)))
        for name, fn in list(suites.SUITES.items()):
            wrapper = self.span(f"suites.{name}", fn)
            suites.SUITES[name] = wrapper
            _rebind(fn, wrapper)
        for meth, key in SCALAR_OPS.items():
            setattr(scalars.Scalar, meth, self.scalar_op(vars(scalars.Scalar)[meth], key))

    def export(self) -> dict:
        return {
            "spans": {k: v[:3] for k, v in self.spans.items()},
            "counts": self.counts,
            "peaks": self.peaks,
        }
