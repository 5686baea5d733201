"""Checks that can fail: each test plants one fault and expects a FAIL."""

import inspect
import json
import sys
import textwrap

import pytest

from rinehart import glmatrix, sampling, smash, superpoly, tensorqp, vectorfields
from rinehart.cli import main
from rinehart.glmatrix import GlMatrix
from rinehart.glmodules import GlModule, MuVector
from rinehart.sampling import Sampler
from rinehart.tensorqp import QPStructure, TensorVec


def plant(monkeypatch, orig, faulty):
    """Replace ``orig`` by ``faulty`` in every rinehart module holding it."""
    holders = 0
    for name, mod in list(sys.modules.items()):
        if name == "rinehart" or name.startswith("rinehart."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, faulty)
                    holders += 1
    assert holders, "the fault was planted nowhere"


def plant_edit(monkeypatch, module, fn, old, new):
    """Plant ``fn`` with its one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    scope = dict(vars(module))
    exec(source.replace(old, new), scope)
    plant(monkeypatch, fn, scope[fn.__name__])


def all_failed(capsys, m, n, fault):
    """Failing ids of ``check all`` at (m, n): none before ``fault()`` plants
    its fault, and the returned set after."""
    args = ["check", "all", "--m", m, "--n", n, "--deg", "2", "--samples", "20",
            "--json"]
    assert main(args) == 0
    capsys.readouterr()
    fault()
    code = main(args)
    failed = {c["id"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"]}
    assert code == (1 if failed else 0)
    return failed


def checks_of(capsys, suite):
    """Exit code and JSON checks of ``check suite`` at (1,2)."""
    code = main(["check", suite, "--m", "1", "--n", "2", "--deg", "2",
                 "--samples", "20", "--json"])
    return code, json.loads(capsys.readouterr().out)["checks"]


def failed_checks(capsys, suite):
    """Exit code and failing check ids of ``check suite`` at (1,2)."""
    code, checks = checks_of(capsys, suite)
    return code, {c["id"] for c in checks if not c["pass"]}


def flip_merge_masks(monkeypatch):
    """Plant a Koszul sign error: two nonempty masks merge with the wrong sign."""
    orig = superpoly.merge_masks

    def flipped(ma, mb):
        sign, mask = orig(ma, mb)
        return (-sign if ma and mb else sign), mask

    plant(monkeypatch, orig, flipped)


@pytest.mark.parametrize("suite", ["koszul", "jacobi"])
def test_merge_masks_sign_flip_fails_the_check(monkeypatch, capsys, suite):
    args = ["check", suite, "--m", "1", "--n", "2", "--deg", "2",
            "--samples", "20", "--json"]
    assert main(args) == 0
    capsys.readouterr()
    flip_merge_masks(monkeypatch)
    assert main(args) == 1
    failed = [c["id"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"]]
    assert failed
    assert not any(cid.endswith(".error") for cid in failed)


def test_failing_check_counts_cases_through_its_counterexample(monkeypatch, capsys):
    """A failing check stops at its first counterexample and counts the
    cases it ran, not the cases it would have run."""
    flip_merge_masks(monkeypatch)
    code, checks = checks_of(capsys, "equalities")
    failed = [c for c in checks if not c["pass"]]
    assert code == 1 and failed
    for c in failed:
        prefix, j = c["counterexample"].split(" ")
        assert prefix == "case"
        assert c["cases"] == int(j) + 1


def test_sibling_failure_does_not_cut_a_centralizer_check(monkeypatch, capsys):
    flip_merge_masks(monkeypatch)
    code, checks = checks_of(capsys, "centralizer")
    results = {c["id"]: (c["pass"], c["cases"]) for c in checks}
    assert code == 1 and not results["centralizer.algebra"][0]
    # 10 generators times the 4 derivations ∂_0, ∂_1, Q_1, Q_2.
    assert results["centralizer.derivations"] == (True, 40)


@pytest.mark.parametrize("suite,expected", [
    ("centralizer", {"centralizer.derivations", "centralizer.algebra"}),
    ("psi", {"psi.bracket_hom"}),
])
def test_tau_zero_fails_the_check(monkeypatch, capsys, suite, expected):
    assert failed_checks(capsys, suite) == (0, set())
    plant(monkeypatch, smash.tau, lambda imask, jmask: 0)
    assert failed_checks(capsys, suite) == (1, expected)


def test_psi_without_mu_fails_the_loop_check(monkeypatch, capsys):
    assert failed_checks(capsys, "loop") == (0, set())
    orig = QPStructure.psi

    def no_mu(S, x, w):
        zero_mu = MuVector.zero(S.sig.m, S.sig.n)
        return orig(QPStructure(S.sig, S.omega, zero_mu), x, w)

    monkeypatch.setattr(QPStructure, "psi", no_mu)
    assert failed_checks(capsys, "loop") == (1, {"loop.tensor_vs_loop"})


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"loop.module_law", "loop.leibniz"}),
    ("1", "2", {"loop.module_law", "loop.tensor_vs_loop", "qp.axiom6[rational]"}),
    ("2", "2", {"loop.module_law"}),
])
def test_kernel_without_the_odd_direction_sign_fails_the_checks(
        monkeypatch, capsys, m, n, expected):
    """The Koszul term (-1)^{|b||α|} dropped from the one twisted-action
    kernel behind ψ and shen_act.  Both sides of loop.tensor_vs_loop then
    share the fault, so it is caught by the loop module's own laws.  A
    fault in μ inside the kernel is caught by phi.weight_shift (see the
    next test)."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, tensorqp, tensorqp._twisted, " + (pb & p_alpha)", "")) == expected


@pytest.mark.parametrize("m,n", [("1", "1"), ("1", "2"), ("2", "2")])
def test_kernel_without_mu_fails_the_weight_check(monkeypatch, capsys, m, n):
    """μ planted as 0 inside the one twisted-action kernel.  Every ψ then
    acts as for μ = 0, itself a valid structure, so the laws all hold;
    phi.weight_shift compares the weight of t^e ζ_M ⊗ e_v with μ + e,
    computed without the kernel, and fails alone."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, tensorqp, tensorqp._twisted, "mu_a = mu[alpha]",
        "mu_a = 0 * mu[alpha]")) == {"phi.weight_shift"}


def shifted_mu(S, slot):
    """S.mu with 1 added at ``slot``; an odd slot gets past MuVector's guard."""
    values = list(S.mu.values)
    values[slot] = values[slot] + 1
    mu = MuVector.zero(S.sig.m, S.sig.n)
    mu.values = tuple(values)
    return mu


EMPTY = "kernel basis is empty"


@pytest.mark.parametrize("slot,expected", [
    (0, {}),
    (-1, {check: EMPTY for check in ("phi.gl_relations", "phi.bridge",
                                     "annihilate.square_ideal", "iso.equivariance",
                                     "iso.bijective")}),
])
def test_kernel_extraction_with_a_shifted_mu(monkeypatch, capsys, slot, expected):
    """omega_extract run on a structure whose μ is shifted at one slot.
    The kernel is cut out by the odd actions ψ_{∂_k}, which read only the
    odd slots of μ, so an even shift (slot 0) is an equivalent mutant that
    no check can see.  An odd shift (the last slot) turns each ψ_{∂_k}
    into ∂_k + 1, whose kernel is 0; every check over the kernel basis
    then fails on the empty basis, and none of them passes vacuously.
    phi.unit_action and phi.weight_shift never read the extracted kernel,
    so they cannot fail here."""
    orig = tensorqp.omega_extract

    def shifted(basis, S):
        return orig(basis, QPStructure(S.sig, S.omega, shifted_mu(S, slot)))

    plant(monkeypatch, orig, shifted)
    code = main(["check", "all", "--m", "1", "--n", "2", "--deg", "2",
                 "--samples", "20", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == (1 if expected else 0)
    assert {c["id"]: c["counterexample"] for c in checks if not c["pass"]} == expected


@pytest.mark.parametrize("m,n", [("1", "1"), ("1", "2"), ("2", "2")])
def test_euler_key_off_by_one_fails_the_degree_field_check(monkeypatch, capsys, m, n):
    """A plain d/dt_i stored as t_i^{-2}·(t_i d/dt_i).  Every field built
    from plain tags moves by the same fault, so the brackets and the
    smash and tensor-module laws all hold; degree_field, written with
    d/dt_i, then no longer scales by the filtration degree."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, vectorfields, vectorfields.euler_key, "exps[p] - 1",
        "exps[p] - 2")) == {"filtration.degree_field"}


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"jacobi.loop.antisymmetry"}),
    ("1", "2", {"jacobi.loop.antisymmetry", "jacobi.loop.super_jacobi"}),
    ("2", "2", {"jacobi.loop.super_jacobi", "loop.der_correspond"}),
])
def test_qp_product_without_its_koszul_sign_fails_the_loop_checks(
        monkeypatch, capsys, m, n, expected):
    """The sign (-1)^{|b||δ|} dropped from the pair loop that qp_product and
    loop_bracket share.  Only an odd b times an odd δ sees it.  The qp and
    equalities suites pass with it, and the loop bracket's antisymmetry,
    super-Jacobi identity or derivation correspondence breaks."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, vectorfields, vectorfields._add_products,
        "if my.bit_count() & 1 and (mx.bit_count() + tag_parity(tx)) & 1:",
        "if False:")) == expected


@pytest.mark.parametrize("m,n", [("1", "1"), ("1", "2"), ("2", "2")])
def test_shift_basis_with_a_flipped_inverse_power_fails_the_plus_rewrite(
        monkeypatch, capsys, m, n):
    """(t_i^{-1} - 1)^s expanded as (1 - t_i^{-1})^s, a sign flip for odd s.
    Filtration degrees do not see a sign, so only the plus-part rewrite,
    which compares the expansion with splus_part, fails."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, superpoly, superpoly._laurent_factor, "(p - a + s - b)",
        "(p - a + 2 * s - b)")) == {"filtration.plus_rewrite"}


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"annihilate.square_ideal", "filtration.mode_membership",
                "filtration.mods2", "filtration.plus_rewrite"}),
    ("1", "2", {"annihilate.square_ideal", "filtration.mods2",
                "filtration.plus_rewrite", "filtration.superadditivity"}),
    ("2", "2", {"annihilate.square_ideal", "filtration.mode_membership",
                "filtration.mods2", "filtration.plus_rewrite",
                "filtration.superadditivity"}),
])
def test_filt_degree_off_by_one_fails_the_filtration_checks(
        monkeypatch, capsys, m, n, expected):
    """filt_degree reads the full Taylor-shift procedure's degree one too
    low, so an element of S^ℓ (ℓ ≥ 2) is placed in S^{ℓ-1} only.  The
    opposite fault, one too high, passes every suite; the Tier-1 oracle
    tests/test_superpoly.py::test_filt_degree_examples catches it."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, superpoly, superpoly.filt_degree, "for (ue, mask) in sf)",
        "for (ue, mask) in sf) - 1")) == expected


def test_loop_counterexample_is_deterministic(monkeypatch, capsys):
    """A failing loop check prints the same counterexample on every run."""
    orig = vectorfields.loop_bracket
    plant(monkeypatch, orig, lambda u, v: orig(u, v) + u)
    args = ["check", "jacobi", "--m", "1", "--n", "1", "--deg", "2",
            "--samples", "10", "--json"]
    runs = []
    for _ in range(2):
        assert main(args) == 1
        runs.append(capsys.readouterr().out)
    failed = {c["id"] for c in json.loads(runs[0])["checks"] if not c["pass"]}
    assert "jacobi.loop.antisymmetry" in failed
    assert runs[0] == runs[1]
    assert "0x" not in runs[0]


def test_scaled_induced_entry_fails_the_gl_relations(monkeypatch, capsys):
    assert failed_checks(capsys, "phi") == (0, set())
    orig = tensorqp.induced_gl_module

    def scaled(S, omega_basis):
        mod = orig(S, omega_basis)
        # the first nonzero entry, in row-major order, of the first nonzero action
        ab, cols = next((ab, cols) for ab, cols in mod.columns.items() if any(cols))
        first = min((u, j) for j, col in enumerate(cols) for u, _ in col)
        columns = dict(mod.columns)
        columns[ab] = [[(u, c * 2 if (u, j) == first else c) for u, c in col]
                       for j, col in enumerate(cols)]
        return GlModule(mod.m, mod.n, mod.dim, mod.parities, columns)

    plant(monkeypatch, orig, scaled)
    assert failed_checks(capsys, "phi") == (1, {"phi.gl_relations"})


@pytest.mark.parametrize("n", ["1", "2"])
def test_gl_bracket_without_koszul_sign_fails_the_gl_checks(monkeypatch, capsys, n):
    """[E_ab, E_cd] = δ_bc E_ad - δ_da E_cb, the sign (-1)^{|ab||cd|}
    dropped, fails both gl bracket checks and no check outside them."""
    def unsigned(x, y):
        out = GlMatrix.zero(x.sig)
        for (a, b), cx in x.terms.items():
            for (c, d), cy in y.terms.items():
                if b == c:
                    out += GlMatrix(x.sig, {(a, d): cx * cy})
                if d == a:
                    out -= GlMatrix(x.sig, {(c, b): cx * cy})
        return out

    args = ["check", "all", "--m", "1", "--n", n, "--deg", "2", "--samples", "20",
            "--json"]
    assert main(args) == 0
    capsys.readouterr()
    plant(monkeypatch, glmatrix.gl_bracket, unsigned)
    assert main(args) == 1
    failed = {c["id"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"]}
    assert failed == {"jacobi.gl.antisymmetry", "jacobi.gl.super_jacobi"}


def test_theta_losing_a_vector_fails_bijectivity(monkeypatch, capsys):
    code, checks = checks_of(capsys, "iso")
    assert code == 0
    total = {c["id"]: c["cases"] for c in checks}["iso.bijective"]
    orig = tensorqp.theta_transport

    def lossy(w, omega_basis, S):
        # the first domain vector: t^-1 ⊗ e_0 with no ζ
        first = TensorVec.basis(w.sig, (-1,) * w.sig.nvars, 0, 0)
        return TensorVec.zero(S.sig) if w == first else orig(w, omega_basis, S)

    plant(monkeypatch, orig, lossy)
    code, checks = checks_of(capsys, "iso")
    failed = {c["id"]: c["counterexample"] for c in checks if not c["pass"]}
    assert code == 1
    assert failed == {
        "iso.bijective": f"rank {total - 1} of {total}, target {total}",
    }


@pytest.mark.parametrize("which,old,new", [
    (1, "+ (-1) ** (pa * pb) * S.phi(b, psi_poly(a))",
        "- (-1) ** (pa * pb) * S.phi(b, psi_poly(a))"),
    (2, "+ sign * S.phi(a, S.psi(x, w))", "- sign * S.phi(a, S.psi(x, w))"),
    (3, "inner = S.phi(tjinv, psi_poly(tj)) - S.psi(unit, w)",
        "inner = S.phi(tjinv, psi_poly(tj)) + S.psi(unit, w)"),
    (4, "inner = -psi_poly(zp) + S.phi(zp, S.psi(unit, w))",
        "inner = psi_poly(zp) + S.phi(zp, S.psi(unit, w))"),
    (5, "rhs = rhs + (-1) ** (pa + 1) * S.phi(da, inner)",
        "rhs = rhs + (-1) ** pa * S.phi(da, inner)"),
])
def test_a_flipped_sign_in_one_operator_identity_fails_that_identity(
        monkeypatch, capsys, which, old, new):
    """One sign flipped on the right-hand side of derived identity k
    fails equalities.k and no other check."""
    assert all_failed(capsys, "1", "2", lambda: plant_edit(
        monkeypatch, tensorqp, tensorqp.operator_identity_check, old, new)) == {
        f"equalities.{which}"}


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"annihilate.square_ideal", "phi.bridge"}),
    ("1", "2", {"annihilate.square_ideal"}),
    ("2", "2", {"annihilate.square_ideal", "phi.bridge"}),
])
def test_t_act_without_the_empty_j_correction_fails_the_square_ideal(
        monkeypatch, capsys, m, n, expected):
    """The -1 # ∂ term of a J = ∅ generator dropped from t_act.  The
    square-ideal combinations then no longer annihilate the kernel;
    phi.bridge, which compares t_act with the φ operators of θ(ψ(gen)),
    sees it when a J = ∅ generator is drawn."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, tensorqp, tensorqp.t_act,
        "out._iadd(S.psi_parts(((alpha, z, 0, Scalar(-1)),), u))", "pass")) == expected


def test_t_act_adding_into_its_input_fails_the_aliasing_guard(monkeypatch):
    """t_act accumulating into the vector u it acts on, not into a fresh
    output: the Tier-1 guard sees u changed after the call."""
    from test_tensorqp import composites_keep_their_inputs

    composites_keep_their_inputs(1, 2)
    plant_edit(monkeypatch, tensorqp, tensorqp.t_act,
               "out = TensorVec.zero(sig)", "out = u")
    with pytest.raises(AssertionError):
        composites_keep_their_inputs(1, 2)


@pytest.mark.parametrize("m,n", [("1", "1"), ("1", "2"), ("2", "2")])
def test_sampled_field_without_euler_key_fails_the_jacobi_suite(
        monkeypatch, capsys, m, n):
    """Sampler.field_term storing a drawn plain ('dt', i) key as it is,
    not rewritten by euler_key.  Only jacobi.fields.faithful draws plain
    tags; the bracket it takes refuses the unknown stored tag, a library
    fault reported as jacobi.error.  Tier-1's
    tests/test_sampling.py::test_sampled_elements_equal_the_validated_constructions
    sees the fault without running a suite."""
    def fault():
        fn = Sampler._field_key
        source = textwrap.dedent(inspect.getsource(fn))
        old = "return euler_key(sig, "
        assert source.count(old) == 1
        scope = dict(vars(sampling))
        exec(source.replace(old, "return ("), scope)
        monkeypatch.setattr(Sampler, "_field_key", scope["_field_key"])

    assert all_failed(capsys, m, n, fault) == {"jacobi.error"}
