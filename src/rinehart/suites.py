"""Seeded verification suites and the machine-readable runner.

Every suite draws its cases from a Random seeded by (seed, suite name),
so a config determines the full case list and two runs with the same
config produce byte-identical JSON summaries.  All comparisons are exact.

A check is a generator of cases run by ``_check``: it stops at the first
counterexample and reports it.  ``cases`` counts every case the check
ran, so for a failing check it counts the cases through its first
counterexample.  The checks of a suite stop independently: one failing
does not cut short another.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from . import linalg
from .config import ConfigError, load_module_config
from .glmatrix import GlMatrix, gl_bracket
from .glmodules import GlModule, MuVector, natural_module, rep_check
from .parser import ParseError, format_element, format_gl_matrix, parse_element
from .sampling import Sampler
from .scalars import Scalar
from .smash import (
    SmashElement,
    make_X,
    psi_map,
    smash_commutator,
    theta_project,
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
    degree_zero_basis,
    full_to_loop,
    induced_gl_module,
    operator_identity_check,
    loop_a_act,
    loop_g_act,
    loop_to_full,
    omega_extract,
    phi_operator,
    qp_axiom_check,
    qp_axiom_suite,
    rho_of,
    shen_act,
    t_act,
    t_act_gens,
    theta_transport,
    tprime_weight,
)
from .vectorfields import (
    LoopElement,
    QPElement,
    VectorField,
    degree_field,
    loop_apply_to_poly,
    loop_bracket,
    loop_der_correspond,
    qp_bracket,
    vf_bracket,
)

SUITE_NAMES = (
    "koszul",
    "jacobi",
    "filtration",
    "theta",
    "psi",
    "centralizer",
    "qp",
    "equalities",
    "loop",
    "phi",
    "annihilate",
    "iso",
    "roundtrip",
)


class SuiteConfig:
    """One `check` run: the signature (m, n), the sampling degree and size,
    the seed, the suites, and an optional module config file and μ."""

    def __init__(self, m: int = 1, n: int = 1, deg: int = 2, samples: int = 100,
                 seed: int = 0, suites: tuple = ("all",),
                 module_path: str | None = None, mu: tuple | None = None):
        self.m, self.n, self.deg, self.samples, self.seed = m, n, deg, samples, seed
        self.suites, self.module_path, self.mu = suites, module_path, mu


class CheckResult:
    """Outcome of one check id; equal by value."""

    def __init__(self, check: str, passed: bool, cases: int,
                 counterexample: str | None = None):
        self.check, self.passed = check, passed
        self.cases, self.counterexample = cases, counterexample

    def _fields(self):
        return self.check, self.passed, self.cases, self.counterexample

    def __eq__(self, other):
        return type(other) is CheckResult and self._fields() == other._fields()

    def __repr__(self):
        return "CheckResult(%r, %r, %r, %r)" % self._fields()


class Env:
    """Per-run state shared by the suites: signature, module and μ."""

    def __init__(self, sig: Signature, omega: GlModule, mu: MuVector):
        self.sig, self.omega, self.mu = sig, omega, mu
        # Per-μ kernel extractions and induced modules, filled on first use.
        self.cache = {}

    @property
    def dotted(self) -> Signature:
        return self.sig.dotted()

    def structure(self, mu: MuVector | None = None) -> QPStructure:
        return QPStructure(self.dotted, self.omega, mu or self.mu)


def build_env(cfg: SuiteConfig) -> Env:
    if cfg.deg < 1 or cfg.samples < 1:  # deg 0 never draws a nonzero exponent
        raise ConfigError(f"--deg and --samples must be at least 1, got"
                          f" deg={cfg.deg}, samples={cfg.samples}")
    sig = Signature(cfg.m, cfg.n, True)
    if cfg.module_path:
        omega, mu = load_module_config(cfg.module_path)
        if (omega.m, omega.n) != (cfg.m, cfg.n):
            raise ConfigError(
                f"module config is for gl({omega.m + 1},{omega.n}),"
                f" run asked for gl({cfg.m + 1},{cfg.n})"
            )
    else:
        omega = natural_module(cfg.m, cfg.n)
        mu = MuVector.zero(cfg.m, cfg.n)
    if cfg.mu is not None:
        mu = MuVector(cfg.m, cfg.n, cfg.mu)
    return Env(sig=sig, omega=omega, mu=mu)


def _rng(cfg: SuiteConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def _check(check_id: str, outcomes) -> CheckResult:
    """Run one check over ``outcomes``, which yields None for each case that
    holds and the counterexample text for one that fails.  Stops at the
    first counterexample without advancing ``outcomes`` past it."""
    cases = 0
    for bad in outcomes:
        cases += 1
        if bad is not None:
            return CheckResult(check_id, False, cases, bad)
    return CheckResult(check_id, True, cases)


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

def koszul_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "koszul")
    s = Sampler(rng, cfg.deg)
    sig = env.sig

    def supercommutativity():
        for _ in range(cfg.samples):
            f, g = s.monomial(sig), s.monomial(sig)
            sign = (-1) ** (f.parity() * g.parity())
            yield None if f * g == sign * (g * f) else (
                f"f={format_element(f)}, g={format_element(g)}"
            )

    def associativity():
        for _ in range(cfg.samples):
            f, g, h = s.monomial(sig), s.monomial(sig), s.monomial(sig)
            yield None if (f * g) * h == f * (g * h) else (
                f"f={format_element(f)}, g={format_element(g)}, h={format_element(h)}"
            )

    tags = sig.tags("dtq")

    def leibniz():
        for _ in range(cfg.samples):
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
        _check("koszul.supercommutativity", supercommutativity()),
        _check("koszul.associativity", associativity()),
        _check("koszul.leibniz", leibniz()),
    ]


# ---------- jacobi ----------

def _bracket_checks(name, sample, bracket, samples):
    def parity(x):
        return x.parity() or 0  # None for zero or mixed parity

    def antisymmetry():
        for _ in range(samples):
            x, y = sample(), sample()
            lhs = bracket(x, y) + (-1) ** (parity(x) * parity(y)) * bracket(y, x)
            yield None if lhs.is_zero() else f"x={x!r}, y={y!r}"

    def super_jacobi():
        for _ in range(samples):
            x, y, z = sample(), sample(), sample()
            sign = (-1) ** (parity(x) * parity(y))
            lhs = bracket(bracket(x, y), z)
            rhs = bracket(x, bracket(y, z)) - sign * bracket(y, bracket(x, z))
            yield None if (lhs - rhs).is_zero() else f"x={x!r}, y={y!r}, z={z!r}"

    return [
        _check(f"jacobi.{name}.antisymmetry", antisymmetry()),
        _check(f"jacobi.{name}.super_jacobi", super_jacobi()),
    ]


def jacobi_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "jacobi")
    s = Sampler(rng, cfg.deg)
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

    out = []
    for name, sample, bracket in (
        ("fields", lambda: s.field_term(sig), vf_bracket),
        ("qp", lambda: s.qp_homogeneous(dotted), qp_bracket),
        ("loop", lambda: s.loop_qp(dotted), loop_bracket),
        ("gl", gl_sample, gl_bracket),
        ("smash", lambda: s.smash_homogeneous(sig), smash_commutator),
    ):
        out += _bracket_checks(name, sample, bracket, cfg.samples)

    def faithful():
        for _ in range(cfg.samples):
            x = s.field_term(sig, kinds="dtq")
            y = s.field_term(sig, kinds="dtq")
            f = s.monomial(sig)
            sign = (-1) ** (x.parity() * y.parity())
            lhs = vf_bracket(x, y).apply(f)
            rhs = x.apply(y.apply(f)) - sign * y.apply(x.apply(f))
            yield None if lhs == rhs else (
                f"x={format_element(x)}, y={format_element(y)}, f={format_element(f)}"
            )

    out.append(_check("jacobi.fields.faithful", faithful()))
    return out


# ---------- filtration ----------

def filtration_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "filtration")
    s = Sampler(rng, cfg.deg)
    sig = env.sig
    one = SuperPoly.one(sig)

    def mods2():
        for _ in range(cfg.samples):
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
        for _ in range(cfg.samples):
            pos = s.pos_exps(sig)
            mask = s.mask(sig.n)
            f = shift_basis(sig, pos, (0,) * sig.nvars, mask)
            ell = sum(pos) + mask_size(mask)
            yield None if dfield.apply(f) == f * ell else f"pos={pos}, mask={mask}"

    def plus_rewrite():
        for k, kprime in ((1, 3), (2, 3)):
            for _ in range(max(1, cfg.samples // 4)):
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
        for _ in range(max(1, cfg.samples // 2)):
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
        for _ in range(cfg.samples):
            f, g = s.monomial(sig), s.poly(sig)
            yield None if filt_degree(f * g) >= filt_degree(f) + filt_degree(g) else (
                f"f={format_element(f)}, g={format_element(g)}"
            )

    return [
        _check("filtration.mods2", mods2()),
        _check("filtration.degree_field", degree_field_eigen()),
        _check("filtration.plus_rewrite", plus_rewrite()),
        _check("filtration.mode_membership", mode_membership()),
        _check("filtration.superadditivity", superadditivity()),
    ]


# ---------- theta ----------

def _s_coefficient_field(s: Sampler, sig: Signature, min_deg: int = 1) -> VectorField:
    out = VectorField.zero(sig)
    for _ in range(2):
        pos, neg, mask = s.shifted_basis(sig, min_deg)
        coeff = shift_basis(sig, pos, neg, mask) * s.scalar()
        out += VectorField.from_poly_tag(coeff, s.tag(sig))
    return out


def theta_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "theta")
    s = Sampler(rng, cfg.deg)
    sig = env.sig

    def homomorphism():
        for _ in range(cfg.samples):
            x = _s_coefficient_field(s, sig)
            y = _s_coefficient_field(s, sig)
            lhs = theta_project(vf_bracket(x, y))
            rhs = gl_bracket(theta_project(x), theta_project(y))
            yield None if lhs == rhs else (
                f"x={format_element(x)}, y={format_element(y)}"
            )

    def kernel():
        for _ in range(max(1, cfg.samples // 2)):
            deep = _s_coefficient_field(s, sig, min_deg=2)
            yield None if theta_project(deep).is_zero() else (
                f"positive sample not killed: {format_element(deep)}"
            )
            tvars = sig.tvars()
            i = tvars[s.below(len(tvars))]
            pick = rng.random() < 0.5
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
        _check("theta.homomorphism", homomorphism()),
        _check("theta.kernel", kernel()),
        _check("theta.table", table()),
    ]


# ---------- centralizer and the bracket identification ----------

def centralizer_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "centralizer")
    s = Sampler(rng, cfg.deg)
    sig = env.sig
    # Each generator with the 20 monomials it is tested against, drawn once.
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
        _check("centralizer.degree_zero", degree_zero()),
        _check("centralizer.derivations", derivations()),
        _check("centralizer.algebra", algebra()),
    ]


def psi_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "psi")
    s = Sampler(rng, cfg.deg)
    sig = env.sig

    def bracket_hom():
        for _ in range(cfg.samples):
            g1 = s.x_generator(sig)
            g2 = s.x_generator(sig)
            try:
                lhs = psi_map(smash_commutator(make_X(sig, *g1), make_X(sig, *g2)))
            except ValueError as exc:
                yield f"g1={g1}, g2={g2}: {exc}"
                continue
            one = Scalar(1)
            rhs = vf_bracket(psi_map({g1: one}, sig), psi_map({g2: one}, sig))
            yield None if lhs == rhs else f"g1={g1}, g2={g2}"

    return [_check("psi.bracket_hom", bracket_hom())]


# ---------- qp axioms ----------

def qp_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "qp")
    out = []
    mu1, mu2 = admissible_mus(cfg.m, cfg.n)
    for label, mu in (("rational", mu1), ("complex", mu2)):
        s = Sampler(rng, cfg.deg)
        S = env.structure(mu)
        report = qp_axiom_suite(S, s, max(1, cfg.samples // 7))
        for axiom in range(1, 8):
            r = report[axiom]
            out.append(
                CheckResult(
                    f"qp.axiom{axiom}[{label}]", r["pass"], r["cases"],
                    r["counterexample"],
                )
            )
    # Sensitivity self-test on the defining module: killing the auxiliary
    # action must break exactly axiom 6 (witness: x = d_1, y = t_1 on 1⊗e_1,
    # whose axiom-6 right side keeps a diagonal matrix term).
    s = Sampler(rng, cfg.deg)
    dotted = env.dotted
    S = QPStructure(dotted, natural_module(cfg.m, cfg.n), mu1,
                    phihat_fn=lambda S, x, w: TensorVec.zero(S.sig))
    report = qp_axiom_suite(S, s, max(1, cfg.samples // 7))
    witness_l, witness_r = qp_axiom_check(
        S,
        6,
        x=QPElement.from_field(VectorField.basis(dotted, ("d", 1))),
        y=QPElement.from_poly(SuperPoly.t_var(dotted, 1)),
        w=TensorVec.basis(dotted, dotted.zero_exps(), 0, 1),
    )
    mutant_ok = (not report[6]["pass"] or witness_l != witness_r) and all(
        report[a]["pass"] for a in (1, 2, 3, 4, 5, 7)
    )
    detail = None if mutant_ok else str({a: report[a]["pass"] for a in range(1, 8)})
    out.append(
        CheckResult(
            "qp.mutation_breaks_axiom6",
            mutant_ok,
            report[6]["cases"] + 1,
            detail,
        )
    )
    return out


# ---------- derived operator identities ----------

def equalities_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "equalities")
    s = Sampler(rng, cfg.deg)
    mu1, _ = admissible_mus(cfg.m, cfg.n)
    S = env.structure(mu1)
    dotted = env.dotted

    def identity(which):
        for case in range(cfg.samples):
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
            yield None if lhs == rhs else f"case {case}"

    return [_check(f"equalities.{which}", identity(which)) for which in range(1, 6)]


# ---------- loop module ----------

def _loop_g_for(f: SuperPoly, alpha: int) -> LoopElement:
    """The loop element acting as f·∂_α on the loop module."""
    tag = f.sig.dir_tag(alpha)
    out = LoopElement.zero(f.sig.dotted())
    for r0, a in f.t0_slices().items():
        out = out + LoopElement.wrap(r0, QPElement.along(a, tag))
    return out


def loop_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "loop")
    s = Sampler(rng, cfg.deg)
    sig, dotted = env.sig, env.dotted
    _, mu2 = admissible_mus(cfg.m, cfg.n)
    S = env.structure(mu2)

    def module_law():
        for _ in range(cfg.samples):
            x, y = s.loop_qp(dotted), s.loop_qp(dotted)
            w = s.loop_tensor(dotted, env.omega)
            sign = (-1) ** (x.parity() * y.parity())
            lhs = loop_g_act(loop_bracket(x, y), w, S)
            rhs = loop_g_act(x, loop_g_act(y, w, S), S) - sign * loop_g_act(
                y, loop_g_act(x, w, S), S
            )
            yield None if lhs == rhs else "module law failed"

    def leibniz():
        for _ in range(cfg.samples):
            x = s.loop_qp(dotted)
            a = s.monomial(sig)
            w = s.loop_tensor(dotted, env.omega)
            pa = a.parity()
            sign = (-1) ** (x.parity() * pa)
            lhs = loop_g_act(x, loop_a_act(a, w, S), S)
            rhs = loop_a_act(loop_apply_to_poly(x, a), w, S) + sign * loop_a_act(
                a, loop_g_act(x, w, S), S
            )
            yield None if lhs == rhs else f"a={format_element(a)}"

    def tensor_vs_loop():
        for _ in range(cfg.samples):
            f = s.monomial(sig, coeff=False)
            alpha = s.below(sig.m + sig.n + 1)
            w = s.tensor(sig, env.omega)
            direct = shen_act(f, alpha, w, S.mu, env.omega)
            looped = loop_g_act(_loop_g_for(f, alpha), full_to_loop(w), S)
            yield None if full_to_loop(direct) == looped else (
                f"f={format_element(f)}, alpha={alpha}"
            )

    def algebra_action():
        for _ in range(cfg.samples):
            g = s.monomial(sig)
            w = s.tensor(sig, env.omega)
            direct = w.left_mul(g)
            looped = loop_a_act(g, full_to_loop(w), S)
            same = full_to_loop(direct) == looped and loop_to_full(looped) == direct
            yield None if same else f"g={format_element(g)}"

    def der_correspond():
        for _ in range(cfg.samples):
            x, y = s.loop_qp(dotted), s.loop_qp(dotted)
            lhs = loop_der_correspond(loop_bracket(x, y))
            rhs = vf_bracket(loop_der_correspond(x), loop_der_correspond(y))
            yield None if lhs == rhs else "bracket correspondence failed"

    def der_action():
        for _ in range(cfg.samples):
            x = s.loop_qp(dotted)
            f = s.monomial(sig)
            lhs = loop_apply_to_poly(x, f)
            rhs = loop_der_correspond(x).apply(f)
            yield None if lhs == rhs else f"f={format_element(f)}"

    return [
        _check("loop.module_law", module_law()),
        _check("loop.leibniz", leibniz()),
        _check("loop.tensor_vs_loop", tensor_vs_loop()),
        _check("loop.algebra_action", algebra_action()),
        _check("loop.der_correspond", der_correspond()),
        _check("loop.der_action", der_action()),
    ]


# ---------- induced gl representation ----------

def _omega_setup(env: Env, mu: MuVector):
    """The structure for μ and its extracted kernel basis, once per Env."""
    key = ("omega", mu.values)
    if key not in env.cache:
        S = env.structure(mu)
        env.cache[key] = S, omega_extract(degree_zero_basis(S), S)
    return env.cache[key]


EMPTY_KERNEL = "kernel basis is empty"


def _induced(env: Env, mu: MuVector) -> GlModule:
    """The induced module on the kernel for μ, built once per Env; raises
    ValueError on an empty kernel basis."""
    key = ("induced", mu.values)
    if key not in env.cache:
        S, basis = _omega_setup(env, mu)
        if not basis:
            raise ValueError(EMPTY_KERNEL)
        env.cache[key] = induced_gl_module(S, basis)
    return env.cache[key]


def _over_kernel(basis: list, check_id: str, outcomes) -> CheckResult:
    """`_check` for a check over the kernel basis.  An empty basis fails it:
    a valid structure's kernel has dimension dim Ω."""
    if not basis:
        return CheckResult(check_id, False, 0, EMPTY_KERNEL)
    return _check(check_id, outcomes)


def phi_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "phi")
    s = Sampler(rng, cfg.deg)
    sig = env.sig
    _, mu2 = admissible_mus(cfg.m, cfg.n)
    S, basis = _omega_setup(env, mu2)

    try:
        report = rep_check(_induced(env, mu2))
    except ValueError as exc:
        out = [CheckResult("phi.gl_relations", False, 0, str(exc))]
    else:
        out = [CheckResult("phi.gl_relations", report.ok, len(sig.directions()) ** 4,
                           None if report.ok else str(report.violations[:3]))]

    z = env.dotted.zero_exps()

    def unit_action():
        for a in sig.directions():
            for b in sig.directions():
                op = phi_operator(a, b, S)
                for v in range(env.omega.dim):
                    lhs = op(TensorVec.basis(env.dotted, z, 0, v))
                    rhs = TensorVec.zero(env.dotted)
                    for u, cu in env.omega.column(a, b, v):
                        rhs._iadd_term((z, 0, u), cu)
                    yield None if lhs == rhs else f"E_{a}_{b} on basis vector {v}"

    def bridge():
        for _ in range(cfg.samples):
            gen = s.x_generator(sig)
            field = psi_map({gen: Scalar(1)}, sig)
            mat = theta_project(field)
            for u in basis:
                direct = t_act(*gen, u, S)
                through = TensorVec.zero(env.dotted)
                for (a, b), c in mat.terms.items():
                    through._iadd(phi_operator(a, b, S)(u), c)
                yield None if direct == through else f"gen={gen}"

    def weight_shift():
        for _ in range(cfg.samples):
            w = s.tensor(env.dotted, env.omega)
            rbar = s.exps(env.dotted)
            imask = s.mask(env.dotted.n)
            shifted = S.phi(SuperPoly.monomial(S.sig, rbar, imask), w)
            if shifted.is_zero():
                yield None  # Grassmann collision
                continue
            shift = tprime_weight(S, shifted)
            base = tprime_weight(S, w)
            # w = c·t^e ζ_M ⊗ e_v has weight (μ_0, e_1 + μ_1, ..., e_m + μ_m)
            (e, _, _), = w.terms
            own = (mu2[0],) + tuple(ei + mu2[i] for i, ei in enumerate(e, 1))
            expected = (base[0],) + tuple(
                base[i] + rbar[i - 1] for i in range(1, env.dotted.m + 1)
            )
            if base != own:
                yield f"weight of t^{e} is not mu + e"
            else:
                yield None if shift == expected else f"rbar={rbar}"

    out.append(_check("phi.unit_action", unit_action()))
    out.append(_over_kernel(basis, "phi.bridge", bridge()))
    out.append(_check("phi.weight_shift", weight_shift()))
    return out


def annihilate_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "annihilate")
    s = Sampler(rng, cfg.deg)
    sig = env.sig
    _, mu2 = admissible_mus(cfg.m, cfg.n)
    S, basis = _omega_setup(env, mu2)

    def square_ideal():
        for _ in range(max(1, cfg.samples // 2)):
            gens = _random_deep_gens(s, sig)
            field = psi_map(gens, sig)
            degs = [filt_degree(c) for c in field.coefficient_polys().values()]
            if field and min(degs) < 2:
                # Only a failed membership counts as a case of its own.
                yield f"sample not in the square ideal: {gens}"
                continue
            for u in basis:
                yield None if t_act_gens(gens, u, S).is_zero() else f"gens={gens}"

    return [_over_kernel(basis, "annihilate.square_ideal", square_ideal())]


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


def iso_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "iso")
    s = Sampler(rng, cfg.deg)
    dotted = env.dotted
    _, mu2 = admissible_mus(cfg.m, cfg.n)
    S, basis = _omega_setup(env, mu2)

    def equivariance():
        for _ in range(cfg.samples):
            w = s.tensor(dotted, induced)
            x = s.qp_homogeneous(dotted)
            a = s.monomial(dotted)
            for kind in ("psi", "phihat", "phi"):
                if kind == "psi":
                    lhs = theta_transport(Sprime.psi(x, w), basis, S)
                    rhs = S.psi(x, theta_transport(w, basis, S))
                elif kind == "phihat":
                    lhs = theta_transport(Sprime.phihat(x, w), basis, S)
                    rhs = S.phihat(x, theta_transport(w, basis, S))
                else:
                    lhs = theta_transport(Sprime.phi(a, w), basis, S)
                    rhs = S.phi(a, theta_transport(w, basis, S))
                yield None if lhs == rhs else f"kind={kind}"

    try:
        induced = _induced(env, mu2)
        Sprime = QPStructure(dotted, induced, rho_of(S, basis))
    except ValueError as exc:
        out = [CheckResult("iso.equivariance", False, 0, str(exc))]
    else:
        out = [_check("iso.equivariance", equivariance())]
    if not basis:
        return out + [CheckResult("iso.bijective", False, 0, EMPTY_KERNEL)]

    bound = 1
    dom = []
    for exps in itertools.product(range(-bound, bound + 1), repeat=dotted.nvars):
        for mask in range(1 << dotted.n):
            for j in range(len(basis)):
                dom.append(TensorVec.basis(dotted, exps, mask, j))
    target_dim = (2 * bound + 1) ** dotted.nvars * (1 << dotted.n) * env.omega.dim
    rk = linalg.rank(theta_transport(v, basis, S).terms for v in dom)
    ok = rk == len(dom) == target_dim
    out.append(
        CheckResult(
            "iso.bijective",
            ok,
            len(dom),
            None if ok else f"rank {rk} of {len(dom)}, target {target_dim}",
        )
    )
    return out


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


def roundtrip_suite(cfg: SuiteConfig, env: Env) -> list[CheckResult]:
    rng = _rng(cfg, "roundtrip")
    s = Sampler(rng, cfg.deg)
    sig = env.sig
    dotted = env.dotted

    def parse_format():
        for case in range(cfg.samples):
            kind = s.below(3)
            if kind == 0:
                e = s.poly(sig, terms=1 + s.below(4))
                use = sig
            elif kind == 1:
                e = s.field(sig, terms=1 + s.below(3))
                use = sig
            else:
                e = QPElement(s.poly(dotted), s.field(dotted))
                use = dotted
            text = format_element(e)
            back = parse_element(text, use, expect="qp" if kind == 2 else None)
            same = back == e if kind != 2 else (back.a == e.a and back.x == e.x)
            ok = same and format_element(back) == text
            yield None if ok else f"case {case}: {text}"

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
        _check("roundtrip.parse_format", parse_format()),
        _check("roundtrip.malformed", malformed()),
    ]


# ---------- runner ----------

SUITES = {
    "koszul": koszul_suite,
    "jacobi": jacobi_suite,
    "filtration": filtration_suite,
    "theta": theta_suite,
    "psi": psi_suite,
    "centralizer": centralizer_suite,
    "qp": qp_suite,
    "equalities": equalities_suite,
    "loop": loop_suite,
    "phi": phi_suite,
    "annihilate": annihilate_suite,
    "iso": iso_suite,
    "roundtrip": roundtrip_suite,
}


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
            checks.append(
                CheckResult(f"{name}.error", False, 0, f"{type(exc).__name__}: {exc}")
            )
    failures = sum(1 for c in checks if not c.passed)
    report = {
        "m": cfg.m,
        "n": cfg.n,
        "deg": cfg.deg,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "suites": names,
        "checks": [
            {
                "id": c.check,
                "pass": c.passed,
                "cases": c.cases,
                "counterexample": c.counterexample,
            }
            for c in checks
        ],
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
