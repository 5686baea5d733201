"""Seeded verification suites and the machine-readable runner.

Every suite draws its cases from one `Sampler` over a Random seeded by
(seed, suite name), so a config determines the full case list and two
runs with the same config produce byte-identical JSON summaries.  All
comparisons are exact.

A suite declares its checks as rows (id, draws, case), and ``_check`` is
the one driver that runs them: it builds the suite's Sampler, calls
``case()`` once per draw, and counts the verdicts each draw yields (None
for a case that holds, the counterexample text for one that fails).  A
draw may yield several verdicts, one per tag or kernel vector.  A check
stops at its first counterexample and draws nothing after it, so
``cases`` counts the cases through that counterexample.  The checks of a
suite stop independently: one failing does not cut short another, though
every later check draws from where it stopped.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import cache

from . import linalg
from .config import ConfigError, load_module_config
from .glmatrix import GlMatrix, gl_bracket
from .glmodules import GlModule, MuVector, natural_module, rep_check
from .parser import (
    ParseError,
    format_element,
    format_gl_matrix,
    format_tensor,
    parse_element,
)
from .sampling import Sampler
from .scalars import ONE, Scalar
from .smash import (
    SmashElement,
    make_X,
    psi_map,
    smash_commutator,
    theta_project,
    x_decompose,
)
from .superpoly import (
    Signature,
    SuperPoly,
    filt_degree,
    mask_size,
    shift_basis,
    splus_part,
)
from .tensorqp import (
    QPStructure,
    TensorVec,
    induced_gl_module,
    operator_identity_check,
    loop_a_act,
    loop_g_act,
    omega_kernel,
    phi_images,
    qp_axiom_check,
    rho_of,
    shen_act,
    t_act,
    theta_table,
    theta_transport,
    tprime_weight,
)
from .vectorfields import (
    QPElement,
    VectorField,
    degree_field,
    loop_apply_to_poly,
    loop_bracket,
    qp_bracket,
    vf_bracket,
)


class SuiteConfig:
    """One `check` run: the signature (m, n), the sampling degree and size,
    the seed, the suites, and an optional module config file."""

    def __init__(self, m: int = 1, n: int = 1, deg: int = 2, samples: int = 100,
                 seed: int = 0, suites: tuple = ("all",),
                 module_path: str | None = None):
        self.m, self.n, self.deg, self.samples, self.seed = m, n, deg, samples, seed
        self.suites, self.module_path = suites, module_path


class Env:
    """Per-run state shared by the suites: the signature ``sig``, its t_0-free
    form ``dotted``, the module Ω and its structures at the two shifts of
    `admissible_mus`, ``S1`` at μ₁ and ``S`` at μ₂.  The qp suite checks
    the axioms on both, `equalities` on ``S1``, and the kernel suites check
    the classification step on ``S``.
    Env is the one owner of what they share: the structures, the kernel
    basis, its φ images, the induced module and θ's table, the last four
    each built on first use, once per Env."""

    def __init__(self, sig: Signature, omega: GlModule):
        self.sig, self.omega, self.dotted = sig, omega, sig.dotted()
        self.S1, self.S = (QPStructure(self.dotted, omega, mu)
                           for mu in admissible_mus(sig.m, sig.n))
        self._basis, self._images, self._induced, self._theta = None, {}, None, None

    def kernel(self) -> list[TensorVec]:
        """The kernel basis of S (`omega_kernel`).  The one empty-kernel
        rule: a valid structure's kernel has dimension dim Ω, and
        `omega_kernel` returns [] when its run-time checks fail, so every
        check over an empty basis fails."""
        if self._basis is None:
            self._basis = omega_kernel(self.S)
        if not self._basis:
            raise _NoKernel(EMPTY_KERNEL)
        return self._basis

    def images(self, vectors: list[TensorVec]) -> dict:
        """φ_ab of each of ``vectors`` (`phi_images`), built once per vector
        list: the induced module solves for the kernel basis's images,
        phi.bridge sums them, and phi.unit_action reads those of the unit
        vectors, the same table whenever the kernel basis is the unit
        vectors."""
        key = tuple(tuple(v.terms.items()) for v in vectors)
        if key not in self._images:
            self._images[key] = phi_images(self.S, vectors)
        return self._images[key]

    def induced(self) -> GlModule:
        """The induced module on the kernel basis; a refusal is kept too,
        and raised again for every later check that needs the module."""
        if self._induced is None:
            basis = self.kernel()
            try:
                self._induced = induced_gl_module(self.S, basis, self.images(basis))
            except ValueError as exc:
                self._induced = _NoKernel(str(exc))
        if isinstance(self._induced, _NoKernel):
            raise self._induced
        return self._induced

    def theta(self) -> tuple:
        """θ's table on the kernel basis (`theta_table`): ζ_M·u_j for every
        ζ-mask M and kernel index j, formed once per run, so that iso moves
        every vector through θ by exponent shifts."""
        if self._theta is None:
            self._theta = theta_table(self.dotted, self.kernel())
        return self._theta


def build_env(cfg: SuiteConfig) -> Env:
    if cfg.deg < 1 or cfg.samples < 1:  # deg 0 never draws a nonzero exponent
        raise ConfigError(f"--deg and --samples must be at least 1, got"
                          f" deg={cfg.deg}, samples={cfg.samples}")
    sig = Signature(cfg.m, cfg.n, True)
    if cfg.module_path:
        omega = load_module_config(cfg.module_path)[0]  # its μ is checked on load, not used
        if (omega.m, omega.n) != (cfg.m, cfg.n):
            raise ConfigError(
                f"module config is for gl({omega.m + 1},{omega.n}),"
                f" run asked for gl({cfg.m + 1},{cfg.n})"
            )
    else:
        omega = natural_module(cfg.m, cfg.n)
    return Env(sig=sig, omega=omega)


def _rng(cfg: SuiteConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


class _NoKernel(Exception):
    """A check's kernel input is missing: the kernel basis is empty, or
    a module built on it was refused.  The driver fails the check with it."""


EMPTY_KERNEL = "kernel basis is empty"


def _verdicts(draws: int, case):
    """The verdicts of ``draws`` draws of ``case``, drawn one at a time."""
    return itertools.chain.from_iterable(case() for _ in range(draws))


def _result(check_id: str, cases: int, counterexample: str | None) -> dict:
    """A check's report entry; it passes when it has no counterexample."""
    return {"id": check_id, "pass": counterexample is None, "cases": cases,
            "counterexample": counterexample}


def _check(cfg: SuiteConfig, env: Env, name: str, rows) -> list[dict]:
    """Run suite ``name``: the one driver of every check.

    ``rows(cfg, env, s)`` declares the suite's checks on its one Sampler
    ``s``.  A row (id, draws, case) runs ``draws`` draws of ``case()``
    and stops at the first counterexample without resuming ``case``.  A
    row (id, None, case) is one verdict over a stated number of cases:
    ``case()`` returns (cases, verdict).  A row that raises `_NoKernel`
    fails with its text as the counterexample.  Returns the report
    entries (`_result`) in row order."""
    s = Sampler(_rng(cfg, name), cfg.deg)
    out = []
    for check_id, draws, case in rows(cfg, env, s):
        cases, bad = 0, None
        try:
            if draws is None:
                cases, bad = case()
            else:
                for bad in _verdicts(draws, case):
                    cases += 1
                    if bad is not None:
                        break
        except _NoKernel as exc:
            bad = str(exc)
        out.append(_result(check_id, cases, bad))
    return out


SUITES = {}


def _suite(name: str):
    """Declare a rows function as suite ``name``: ``SUITES[name](cfg, env)``
    runs its rows through the driver."""
    def register(rows):
        def run(cfg: SuiteConfig, env: Env) -> list[dict]:
            return _check(cfg, env, name, rows)
        SUITES[name] = run
        return run
    return register


def admissible_mus(m: int, n: int) -> tuple[MuVector, MuVector]:
    """Two distinct admissible shift vectors, the second non-real."""
    first = MuVector(
        m, n, [Scalar(Fraction(i + 1, 2)) for i in range(m + 1)] + [Scalar(0)] * n
    )
    second = MuVector(
        m,
        n,
        [Scalar(Fraction(1, 3), Fraction(i + 1, 2)) for i in range(m + 1)]
        + [Scalar(0)] * n,
    )
    return first, second


# ---------- koszul ----------

@_suite("koszul")
def koszul_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig = env.sig

    def supercommutativity():
        f, g = s.monomial(sig), s.monomial(sig)
        sign = (-1) ** (f.parity() * g.parity())
        yield None if f * g == sign * (g * f) else (
            f"f={format_element(f)}, g={format_element(g)}"
        )

    def associativity():
        f, g, h = s.monomial(sig), s.monomial(sig), s.monomial(sig)
        yield None if (f * g) * h == f * (g * h) else (
            f"f={format_element(f)}, g={format_element(g)}, h={format_element(h)}"
        )

    tags = sig.tags("dtq")

    def leibniz():
        f, g = s.monomial(sig), s.monomial(sig)
        pf = f.parity()
        for tag in tags:
            lhs = (f * g).derive(tag)
            sign = -1 if tag[0] == "q" and pf else 1
            rhs = f.derive(tag) * g + sign * (f * g.derive(tag))
            yield None if lhs == rhs else (
                f"tag={tag}, f={format_element(f)}, g={format_element(g)}"
            )

    return [
        ("koszul.supercommutativity", cfg.samples, supercommutativity),
        ("koszul.associativity", cfg.samples, associativity),
        ("koszul.leibniz", cfg.samples, leibniz),
    ]


# ---------- jacobi ----------

def _bracket_rows(name, sample, bracket, samples):
    def parity(x):
        return x.parity() or 0  # None for zero or mixed parity

    def antisymmetry():
        x, y = sample(), sample()
        lhs = bracket(x, y) + (-1) ** (parity(x) * parity(y)) * bracket(y, x)
        yield None if lhs.is_zero() else f"x={x!r}, y={y!r}"

    def super_jacobi():
        x, y, z = sample(), sample(), sample()
        sign = (-1) ** (parity(x) * parity(y))
        lhs = bracket(bracket(x, y), z)
        rhs = bracket(x, bracket(y, z)) - sign * bracket(y, bracket(x, z))
        yield None if (lhs - rhs).is_zero() else f"x={x!r}, y={y!r}, z={z!r}"

    return [
        (f"jacobi.{name}.antisymmetry", samples, antisymmetry),
        (f"jacobi.{name}.super_jacobi", samples, super_jacobi),
    ]


@_suite("jacobi")
def jacobi_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig, dotted = env.sig, env.dotted

    def gl_sample():
        p = s.below(2)
        g = GlMatrix.zero(sig)
        dim = len(sig.directions())
        for _ in range(2):
            while True:
                a = s.below(dim)
                b = s.below(dim)
                if sig.gl_parity(a, b) == p:
                    break
            g._iadd_term((a, b), s.scalar())
        return g

    rows = []
    for name, sample, bracket in (
        ("fields", lambda: s.field_term(sig), vf_bracket),
        ("qp", lambda: s.qp_homogeneous(dotted), qp_bracket),
        ("loop", lambda: s.loop_qp(sig), loop_bracket),
        ("gl", gl_sample, gl_bracket),
        ("smash", lambda: s.smash_homogeneous(sig), smash_commutator),
    ):
        rows += _bracket_rows(name, sample, bracket, cfg.samples)

    def faithful():
        x = s.field_term(sig, kinds="dtq")
        y = s.field_term(sig, kinds="dtq")
        f = s.monomial(sig)
        sign = (-1) ** (x.parity() * y.parity())
        lhs = vf_bracket(x, y).apply(f)
        rhs = x.apply(y.apply(f)) - sign * y.apply(x.apply(f))
        yield None if lhs == rhs else (
            f"x={format_element(x)}, y={format_element(y)}, f={format_element(f)}"
        )

    return rows + [("jacobi.fields.faithful", cfg.samples, faithful)]


# ---------- filtration ----------

@_suite("filtration")
def filtration_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig = env.sig
    one = SuperPoly.one(sig)

    def mods2():
        rbar = s.exps(sig)
        tmon = SuperPoly.monomial(sig, rbar)
        linear = SuperPoly.zero(sig)
        for i in sig.tvars():
            ri = rbar[sig.tpos(i)]
            if ri:
                linear += (SuperPoly.t_var(sig, i) - one) * ri
        yield None if filt_degree(tmon - one - linear) >= 2 else f"rbar={rbar}"
        for k in range(1, sig.n + 1):
            zk = SuperPoly.zeta(sig, k)
            ok = filt_degree(tmon * zk - zk) >= 2
            yield None if ok else f"rbar={rbar}, k={k}"

    dfield = degree_field(sig)

    def degree_field_eigen():
        pos = s.pos_exps(sig)
        mask = s.mask(sig.n)
        f = shift_basis(sig, pos, (0,) * sig.nvars, mask)
        ell = sum(pos) + mask_size(mask)
        yield None if dfield.apply(f) == f * ell else f"pos={pos}, mask={mask}"

    quarter = max(1, cfg.samples // 4)
    plus_draw = itertools.count()

    def plus_rewrite():
        k, kprime = 1 + next(plus_draw) // quarter, 3  # k = 1, then k = 2
        pos, neg, mask = s.shifted_basis(sig, k)
        f = shift_basis(sig, pos, neg, mask)
        g = splus_part(sig, pos, neg, mask, kprime)
        if any(e < 0 for e in g.min_t_exponents()):
            yield f"plus part has negative exponents: pos={pos}, neg={neg}"
        elif g and filt_degree(g) < k:
            yield f"plus part too shallow: pos={pos}, neg={neg}, mask={mask}"
        elif filt_degree(f - g) < kprime:
            yield f"remainder below {kprime}: pos={pos}, neg={neg}, mask={mask}"
        else:
            yield None

    def mode_membership():
        k = 1 + s.below(2)
        pos, neg, mask = s.shifted_basis(sig, k)
        coeff = shift_basis(sig, pos, neg, mask)
        for kinds in ("d", "t"):
            x = VectorField.from_poly_tag(coeff, s.tag(sig, kinds + "q"))
            flipped = (x.plain_coefficient_polys() if kinds == "d"
                       else x.coefficient_polys())
            degs = [filt_degree(c) for c in flipped.values()]
            yield None if all(d >= k for d in degs) else (
                f"k={k}, pos={pos}, neg={neg}, mask={mask}"
            )

    def superadditivity():
        f, g = s.monomial(sig), s.poly(sig)
        yield None if filt_degree(f * g) >= filt_degree(f) + filt_degree(g) else (
            f"f={format_element(f)}, g={format_element(g)}"
        )

    return [
        ("filtration.mods2", cfg.samples, mods2),
        ("filtration.degree_field", cfg.samples, degree_field_eigen),
        ("filtration.plus_rewrite", 2 * quarter, plus_rewrite),
        ("filtration.mode_membership", max(1, cfg.samples // 2), mode_membership),
        ("filtration.superadditivity", cfg.samples, superadditivity),
    ]


# ---------- theta ----------

def _s_coefficient_field(s: Sampler, sig: Signature, min_deg: int = 1) -> VectorField:
    out = VectorField.zero(sig)
    for _ in range(2):
        pos, neg, mask = s.shifted_basis(sig, min_deg)
        coeff = shift_basis(sig, pos, neg, mask) * s.scalar()
        out += VectorField.from_poly_tag(coeff, s.tag(sig))
    return out


@_suite("theta")
def theta_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig = env.sig

    def homomorphism():
        x = _s_coefficient_field(s, sig)
        y = _s_coefficient_field(s, sig)
        lhs = theta_project(vf_bracket(x, y))
        rhs = gl_bracket(theta_project(x), theta_project(y))
        yield None if lhs == rhs else (
            f"x={format_element(x)}, y={format_element(y)}"
        )

    def kernel():
        deep = _s_coefficient_field(s, sig, min_deg=2)
        yield None if theta_project(deep).is_zero() else (
            f"positive sample not killed: {format_element(deep)}"
        )
        tvars = sig.tvars()
        i = tvars[s.below(len(tvars))]
        pick = s.rng.random() < 0.5
        lin = (
            SuperPoly.t_var(sig, i) - SuperPoly.one(sig)
            if pick
            else SuperPoly.zeta(sig, 1 + s.below(sig.n))
        )
        shallow = VectorField.from_poly_tag(lin * s.scalar(), s.tag(sig))
        shallow += _s_coefficient_field(s, sig, min_deg=2)
        yield None if not theta_project(shallow).is_zero() else (
            f"negative sample killed: {format_element(shallow)}"
        )

    one = SuperPoly.one(sig)

    def table():
        for a in sig.directions():
            kind, i = sig.dir_tag(a)
            coeff = SuperPoly.t_var(sig, i) - one if kind == "d" else SuperPoly.zeta(sig, i)
            for b in sig.directions():
                g = theta_project(VectorField.from_poly_tag(coeff, sig.dir_tag(b)))
                yield None if g == GlMatrix.elementary(sig, a, b) else (
                    f"entry ({a},{b}) gives {format_gl_matrix(g)}"
                )

    return [
        ("theta.homomorphism", cfg.samples, homomorphism),
        ("theta.kernel", max(1, cfg.samples // 2), kernel),
        ("theta.table", 1, table),
    ]


# ---------- the bracket identification and the centralizer ----------

@_suite("psi")
def psi_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig = env.sig

    def bracket_hom():
        g1 = s.x_generator(sig)
        g2 = s.x_generator(sig)
        try:
            commutator = smash_commutator(make_X(sig, *g1), make_X(sig, *g2))
            lhs = psi_map(x_decompose(commutator), sig)
        except ValueError as exc:
            yield f"g1={g1}, g2={g2}: {exc}"
            return
        rhs = vf_bracket(psi_map({g1: ONE}, sig), psi_map({g2: ONE}, sig))
        yield None if lhs == rhs else f"g1={g1}, g2={g2}"

    return [("psi.bracket_hom", cfg.samples, bracket_hom)]


@_suite("centralizer")
def centralizer_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig = env.sig
    # Each generator with the 20 monomials it is tested against, drawn once;
    # every check fans out over all of them in one draw.
    drawn = []
    for _ in range(max(1, cfg.samples // 2)):
        rbar, jmask, tag = s.x_generator(sig)
        x = make_X(sig, rbar, jmask, tag)
        monomials = [s.monomial(sig) for _ in range(20)]
        drawn.append((f"gen={rbar},{jmask},{tag}", x, monomials))

    def degree_zero():
        for gen, x, _ in drawn:
            yield None if x.is_degree_zero() else gen

    def derivations():
        for gen, x, _ in drawn:
            for delta in sig.tags():
                d = SmashElement.from_field(VectorField.basis(sig, delta))
                ok = smash_commutator(x, d).is_zero()
                yield None if ok else f"{gen}, delta={delta}"

    def algebra():
        for gen, x, monomials in drawn:
            for a in monomials:
                ok = smash_commutator(x, SmashElement.from_poly(a)).is_zero()
                yield None if ok else f"{gen}, a={format_element(a)}"

    return [
        ("centralizer.degree_zero", 1, degree_zero),
        ("centralizer.derivations", 1, derivations),
        ("centralizer.algebra", 1, algebra),
    ]


# ---------- qp axioms ----------

class _NoPhihat(QPStructure):
    """The structure with φ̂ killed: the qp suite's self-test mutant."""

    __slots__ = ()

    def phihat_parts(self, parts, vectors):
        return [TensorVec.zero(self.sig) for _ in vectors]


def _axiom_rows(S: QPStructure, s: Sampler, draws: int, label: str = "") -> list:
    """Rows of the seven axioms on S, each draw drawing a, b, x, y, w."""
    sig = S.sig

    def axiom(k):
        drawn = itertools.count()

        def case():
            a, b = s.monomial(sig), s.monomial(sig)
            x, y = s.qp_homogeneous(sig), s.qp_homogeneous(sig)
            w = s.tensor(sig, S.omega)
            lhs, rhs = qp_axiom_check(S, k, a=a, b=b, x=x, y=y, w=w)
            j = next(drawn)
            yield None if lhs == rhs else (
                f"axiom {k} case {j}: a={format_element(a)}, b={format_element(b)},"
                f" x={format_element(x)}, y={format_element(y)}, w={format_tensor(w)}"
            )
        return case

    return [(f"qp.axiom{k}{label}", draws, axiom(k)) for k in range(1, 8)]


@_suite("qp")
def qp_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    draws = max(1, cfg.samples // 7)
    rows = []
    for label, S in (("rational", env.S1), ("complex", env.S)):
        rows += _axiom_rows(S, s, draws, f"[{label}]")
    # Sensitivity self-test on the defining module: killing the auxiliary
    # action must break exactly axiom 6 (witness: x = d_1, y = t_1 on 1⊗e_1,
    # whose axiom-6 right side keeps a diagonal matrix term).
    dotted = env.dotted
    mutant = _NoPhihat(dotted, natural_module(cfg.m, cfg.n), env.S1.mu)

    def breaks_axiom6():
        held = {k: all(bad is None for bad in _verdicts(draws, case))
                for k, (_, _, case) in enumerate(_axiom_rows(mutant, s, draws), 1)}
        witness_l, witness_r = qp_axiom_check(
            mutant,
            6,
            x=QPElement.from_field(VectorField.basis(dotted, ("d", 1))),
            y=QPElement.from_poly(SuperPoly.t_var(dotted, 1)),
            w=TensorVec.basis(dotted, dotted.zero_exps(), 0, 1),
        )
        ok = (not held[6] or witness_l != witness_r) and all(
            held[k] for k in (1, 2, 3, 4, 5, 7))
        # A stated count, the mutant's axiom-6 draws and the witness:
        # counting where its axiom 6 stops would move this passing report.
        return max(1, cfg.samples // 7) + 1, None if ok else str(held)

    return rows + [("qp.mutation_breaks_axiom6", None, breaks_axiom6)]


# ---------- derived operator identities ----------

@_suite("equalities")
def equalities_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    S, dotted = env.S1, env.dotted

    def identity(which):
        drawn = itertools.count()

        def case():
            w = s.tensor(dotted, env.omega)
            kwargs = {"w": w}
            if which in (1, 2, 3, 5):
                kwargs["a"] = s.monomial(dotted)
            if which == 1:
                kwargs["b"] = s.monomial(dotted)
            if which in (2, 5):
                kwargs["x"] = s.qp_homogeneous(dotted)
            if which == 3:
                kwargs["rbar"] = s.exps(dotted)
            if which == 4:
                kwargs["imask"] = s.mask(dotted.n)
            lhs, rhs = operator_identity_check(which, S, **kwargs)
            j = next(drawn)
            yield None if lhs == rhs else f"case {j}"
        return case

    return [(f"equalities.{which}", cfg.samples, identity(which))
            for which in range(1, 6)]


# ---------- loop module ----------

@_suite("loop")
def loop_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    """The loop algebra and module, stored as Der(A) and A ⊗ Ω but computed
    slice by slice, against the full-signature operations on those types."""
    sig, S = env.sig, env.S

    def module_law():
        x, y = s.loop_qp(sig), s.loop_qp(sig)
        w = s.loop_tensor(sig, env.omega)
        sign = (-1) ** (x.parity() * y.parity())
        lhs = loop_g_act(loop_bracket(x, y), w, S)
        rhs = loop_g_act(x, loop_g_act(y, w, S), S) - sign * loop_g_act(
            y, loop_g_act(x, w, S), S
        )
        yield None if lhs == rhs else "module law failed"

    def leibniz():
        x = s.loop_qp(sig)
        a = s.monomial(sig)
        w = s.loop_tensor(sig, env.omega)
        pa = a.parity()
        sign = (-1) ** (x.parity() * pa)
        lhs = loop_g_act(x, loop_a_act(a, w, S), S)
        rhs = loop_a_act(loop_apply_to_poly(x, a), w, S) + sign * loop_a_act(
            a, loop_g_act(x, w, S), S
        )
        yield None if lhs == rhs else f"a={format_element(a)}"

    def tensor_vs_loop():
        f = s.monomial(sig, coeff=False)
        alpha = s.below(sig.m + sig.n + 1)
        w = s.tensor(sig, env.omega)
        looped = loop_g_act(VectorField.from_poly_tag(f, sig.dir_tag(alpha)), w, S)
        yield None if shen_act(f, alpha, w, S.mu, env.omega) == looped else (
            f"f={format_element(f)}, alpha={alpha}"
        )

    def algebra_action():
        g = s.monomial(sig)
        w = s.tensor(sig, env.omega)
        yield None if loop_a_act(g, w, S) == w.left_mul(g) else f"g={format_element(g)}"

    def der_correspond():
        x, y = s.loop_qp(sig), s.loop_qp(sig)
        yield None if loop_bracket(x, y) == vf_bracket(x, y) else (
            "bracket correspondence failed")

    def der_action():
        x = s.loop_qp(sig)
        f = s.monomial(sig)
        yield None if loop_apply_to_poly(x, f) == x.apply(f) else f"f={format_element(f)}"

    return [
        ("loop.module_law", cfg.samples, module_law),
        ("loop.leibniz", cfg.samples, leibniz),
        ("loop.tensor_vs_loop", cfg.samples, tensor_vs_loop),
        ("loop.algebra_action", cfg.samples, algebra_action),
        ("loop.der_correspond", cfg.samples, der_correspond),
        ("loop.der_action", cfg.samples, der_action),
    ]


# ---------- induced gl representation ----------

@_suite("phi")
def phi_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig, dotted, S = env.sig, env.dotted, env.S

    def gl_relations():
        violations = rep_check(env.induced())
        return len(sig.directions()) ** 4, str(violations[:3]) if violations else None

    z = dotted.zero_exps()

    def unit_action():
        units = [TensorVec.basis(dotted, z, 0, v) for v in range(env.omega.dim)]
        images = env.images(units)
        for a in sig.directions():
            for b in sig.directions():
                for v, lhs in enumerate(images[a, b]):
                    rhs = TensorVec.zero(dotted)
                    for u, cu in env.omega.columns[a, b][v]:
                        rhs._iadd_term((z, 0, u), cu)
                    yield None if lhs == rhs else f"E_{a}_{b} on basis vector {v}"

    def bridge():
        basis = env.kernel()
        phi = env.images(basis)
        gen = s.x_generator(sig)
        field = psi_map({gen: ONE}, sig)
        mat = theta_project(field)
        for j, direct in enumerate(t_act({gen: ONE}, basis, S)):
            through = TensorVec.zero(dotted)
            for ab, c in mat.terms.items():
                image = phi[ab][j]
                if image.terms:  # often empty: most E_ab kill most of Ω
                    through._iadd(image, c)
            yield None if direct == through else f"gen={gen}"

    def weight_shift():
        w = s.tensor(dotted, env.omega)
        rbar = s.exps(dotted)
        imask = s.mask(dotted.n)
        shifted = S.phi(SuperPoly.monomial(S.sig, rbar, imask), w)
        if shifted.is_zero():
            yield None  # Grassmann collision
            return
        shift = tprime_weight(S, shifted)
        base = tprime_weight(S, w)
        # w = c·t^e ζ_M ⊗ e_v has weight (μ_0, e_1 + μ_1, ..., e_m + μ_m)
        (e, _, _), = w.terms
        own = (S.mu[0],) + tuple(ei + S.mu[i] for i, ei in enumerate(e, 1))
        expected = (base[0],) + tuple(
            base[i] + rbar[i - 1] for i in range(1, dotted.m + 1)
        )
        if base != own:
            yield f"weight of t^{e} is not mu + e"
        else:
            yield None if shift == expected else f"rbar={rbar}"

    return [
        ("phi.gl_relations", None, gl_relations),
        ("phi.unit_action", 1, unit_action),
        ("phi.bridge", cfg.samples, bridge),
        ("phi.weight_shift", cfg.samples, weight_shift),
    ]


@_suite("annihilate")
def annihilate_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig, S = env.sig, env.S

    def square_ideal():
        basis = env.kernel()
        gens = _random_deep_gens(s, sig)
        field = psi_map(gens, sig)
        degs = [filt_degree(c) for c in field.coefficient_polys().values()]
        if field and min(degs) < 2:
            # Only a failed membership counts as a case of its own.
            yield f"sample not in the square ideal: {gens}"
            return
        for image in t_act(gens, basis, S):
            yield None if image.is_zero() else f"gens={gens}"

    return [("annihilate.square_ideal", max(1, cfg.samples // 2), square_ideal)]


def _random_deep_gens(s: Sampler, sig: Signature) -> dict:
    """Generator combinations whose field image lies in the square of the
    vanishing ideal: products of two unit-shifted factors, a shifted
    Grassmann factor, or a doubled Grassmann mask."""
    tag = s.tag(sig)
    shape = s.below(3 if sig.n >= 2 else 2)
    one = Scalar(1)
    if shape == 0:
        while True:
            r1 = s.exps(sig)
            r2 = s.exps(sig)
            if any(r1) and any(r2):
                break
        total = tuple(a + b for a, b in zip(r1, r2))
        gens: dict = {}
        for key, c in (((r1, 0, tag), -one), ((r2, 0, tag), -one)):
            gens[key] = gens.get(key, Scalar(0)) + c
        if any(total):
            gens[(total, 0, tag)] = gens.get((total, 0, tag), Scalar(0)) + one
        return {k: c for k, c in gens.items() if c}
    if shape == 1:
        while True:
            rbar = s.exps(sig)
            if any(rbar):
                break
        jmask = 1 << s.below(sig.n)
        return {(rbar, jmask, tag): one, (sig.zero_exps(), jmask, tag): -one}
    while True:
        jmask = s.mask(sig.n)
        if mask_size(jmask) >= 2:
            break
    return {(s.exps(sig), jmask, tag): one}


@_suite("iso")
def iso_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    dotted, S = env.dotted, env.S

    @cache
    def transported():
        """The structure on the induced module, its shift read off the
        kernel; a kernel off a single weight slice fails the check."""
        induced = env.induced()
        try:
            return QPStructure(dotted, induced, rho_of(S, env.kernel()))
        except ValueError as exc:
            raise _NoKernel(str(exc)) from exc

    def equivariance():
        Sprime = transported()
        table = env.theta()
        w = s.tensor(dotted, Sprime.omega)
        x = s.qp_homogeneous(dotted)
        a = s.monomial(dotted)
        lhs = theta_transport([Sprime.psi(x, w).terms, Sprime.phihat(x, w).terms,
                               Sprime.phi(a, w).terms], table)
        image = TensorVec._trusted(dotted, theta_transport([w.terms], table)[0])
        rhs = [S.psi(x, image).terms, S.phihat(x, image).terms, S.phi(a, image).terms]
        for kind, left, right in zip(("psi", "phihat", "phi"), lhs, rhs):
            yield None if left == right else f"kind={kind}"

    def bijective():
        """θ on the box of t-exponents {-1, 0, 1}^m, one exponent's block
        of 2^n·dim Ω images per θ call and per rank: the kernel has
        t-degree 0, so each block (a weight space) maps into itself and the
        rank is the sum of the blocks'.  If an image leaves its block, the
        whole box is ranked at once."""
        table = env.theta()
        exponents = list(itertools.product(range(-1, 2), repeat=dotted.nvars))
        units = [(mask, j) for mask in range(1 << dotted.n) for j in range(len(env.kernel()))]

        def block(exps):
            return theta_transport([{(exps, mask, j): ONE} for mask, j in units], table)

        rk = 0
        for exps in exponents:
            images = block(exps)
            if any(key[0] != exps for image in images for key in image):
                rk = linalg.rank(image for e in exponents for image in block(e))
                break
            rk += linalg.rank(images)
        size = len(exponents) * len(units)
        target_dim = len(exponents) * (1 << dotted.n) * env.omega.dim
        ok = rk == size == target_dim
        return size, None if ok else f"rank {rk} of {size}, target {target_dim}"

    return [
        ("iso.equivariance", cfg.samples, equivariance),
        ("iso.bijective", None, bijective),
    ]


# ---------- parser round trips ----------

MALFORMED = (
    "",
    "t",
    "z",
    "t0^",
    "1/0",
    "t0**t1",
    "3*",
    "*t0",
    "t0+",
    "D1*t0",
    "D1*D1",
    "Q1*Q2",
    "t0^x",
    "w1",
    "1+",
    "(t0",
    "t0)",
    "()",
    "^2",
    "t0 t1",
)


@_suite("roundtrip")
def roundtrip_suite(cfg: SuiteConfig, env: Env, s: Sampler) -> list:
    sig = env.sig
    dotted = env.dotted
    drawn = itertools.count()

    def parse_format():
        kind = s.below(3)
        if kind == 0:
            e = s.poly(sig, terms=1 + s.below(4))
            use = sig
        elif kind == 1:
            e = s.field(sig, terms=1 + s.below(3))
            use = sig
        else:
            e = QPElement.pair(s.poly(dotted), s.field(dotted))
            use = dotted
        text = format_element(e)
        back = parse_element(text, use, expect="qp" if kind == 2 else None)
        ok = back == e and format_element(back) == text
        j = next(drawn)
        yield None if ok else f"case {j}: {text}"

    def malformed():
        for text in MALFORMED:
            try:
                parse_element(text, sig)
            except ParseError as exc:
                located = isinstance(exc.position, int) and "position" in str(exc)
                yield None if located else f"no position in diagnostic for {text!r}"
            else:
                yield f"malformed input accepted: {text!r}"

    return [
        ("roundtrip.parse_format", cfg.samples, parse_format),
        ("roundtrip.malformed", 1, malformed),
    ]


# ---------- runner ----------

SUITE_NAMES = tuple(SUITES)


def run_suite(cfg: SuiteConfig) -> tuple[int, dict]:
    """Run the selected suites; returns (exit code, JSON-ready report)."""
    env = build_env(cfg)
    names = []
    for name in cfg.suites:
        if name == "all":
            names.extend(SUITE_NAMES)
        elif name in SUITES:
            names.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    checks = []
    for name in names:
        try:
            checks.extend(SUITES[name](cfg, env))
        except Exception as exc:  # a library fault, not a config error
            import traceback

            traceback.print_exc()
            checks.append(_result(f"{name}.error", 0, f"{type(exc).__name__}: {exc}"))
    failures = sum(1 for c in checks if not c["pass"])
    report = {
        "m": cfg.m,
        "n": cfg.n,
        "deg": cfg.deg,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "suites": names,
        "checks": checks,
        "failures": failures,
    }
    return (0 if failures == 0 else 1), report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def report_text(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        line = f"{status} {c['id']} ({c['cases']} cases)"
        if c["counterexample"]:
            line += f": {c['counterexample']}"
        lines.append(line)
    lines.append(
        f"{len(report['checks'])} checks, {report['failures']} failures"
        f" (m={report['m']}, n={report['n']}, seed={report['seed']})"
    )
    return "\n".join(lines)
