"""Checks that can fail: each test plants one fault and expects a FAIL."""

import hashlib
import inspect
import json
import sys
import textwrap

import pytest
from conftest import zero_mu

from rinehart import (
    glmatrix, glmodules, linalg, sampling, scalars, smash, superpoly, tensorqp,
    vectorfields,
)
from rinehart.cli import main
from rinehart.glmatrix import GlMatrix
from rinehart.glmodules import GlModule, natural_module
from rinehart.parser import parse_element
from rinehart.sampling import Sampler
from rinehart.scalars import Scalar
from rinehart.suites import _NoPhihat
from rinehart.superpoly import Signature, SuperPoly, mask_size
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
    cases it ran, not the cases it would have run: the equalities under a
    Koszul sign error, and the qp axioms with φ̂ killed (as the qp suite's
    own mutant kills it), where axiom 6 fails at its third draw of ten."""
    flip_merge_masks(monkeypatch)
    code, checks = checks_of(capsys, "equalities")
    failed = [c for c in checks if not c["pass"]]
    assert code == 1 and failed
    for c in failed:
        prefix, j = c["counterexample"].split(" ")
        assert prefix == "case"
        assert c["cases"] == int(j) + 1

    monkeypatch.undo()
    monkeypatch.setattr(QPStructure, "phihat_parts", _NoPhihat.phihat_parts)
    assert main(["check", "qp", "--m", "1", "--n", "2", "--samples", "70",
                 "--json"]) == 1
    failed = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"]}
    assert failed["qp.axiom6[rational]"]["cases"] == 3
    assert failed["qp.axiom6[rational]"]["counterexample"].startswith("axiom 6 case 2:")
    for c in failed.values():
        j = c["counterexample"].split(":")[0].split(" ")[-1]
        assert c["cases"] == int(j) + 1, c


# sha256 of `check all --m 1 --n 2 --deg 2 --samples 20 --json` with
# merge_masks sign-flipped.  Eleven ids fail; each stops at its first
# counterexample, and the checks after it in its suite draw from there.
FLIPPED_MERGE_MASKS = "2a1a1a922a7e0d8337a7960cea07d8deec545b7eaae8b03795ce8e7b17beb353"


def test_failing_report_is_pinned(monkeypatch, capsys):
    """Every golden hash comes from a passing run; this one pins where
    failing checks stop and what the checks after them draw."""
    flip_merge_masks(monkeypatch)
    assert main(["check", "all", "--m", "1", "--n", "2", "--deg", "2",
                 "--samples", "20", "--json"]) == 1
    out = capsys.readouterr().out
    failed = {c["id"]: c for c in json.loads(out)["checks"] if not c["pass"]}
    assert len(failed) == 11 and not any(cid.startswith("qp.") for cid in failed)
    assert hashlib.sha256(out.encode()).hexdigest() == FLIPPED_MERGE_MASKS
    # a loop element prints as the field that stores it, a literal that reads back
    text = failed["jacobi.loop.super_jacobi"]["counterexample"]
    literal = text.removeprefix("x=<VectorField ").partition(">")[0]
    assert literal == "2/3*t0*t1^-1*z1*z2*Q1"
    monkeypatch.undo()  # the parser multiplies z1*z2 with merge_masks
    assert repr(parse_element(literal, Signature(1, 2))) == f"<VectorField {literal}>"


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
    """μ planted as 0 in the structure that `loop_smash_act` hands to the
    smash-term kernel `_smash_act`.  The loop actions then act for μ = 0,
    and loop.tensor_vs_loop, which compares them with shen_act for the
    suite's μ, fails."""
    assert failed_checks(capsys, "loop") == (0, set())
    plant_edit(monkeypatch, tensorqp, tensorqp.loop_smash_act, "(v,), S, k)",
               "(v,), QPStructure(S.sig, S.omega, MuVector(S.sig.m, S.sig.n,"
               " [0] * len(S.mu.values))), k)")
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
    mu = zero_mu(S.sig.m, S.sig.n)
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
    """omega_kernel run on a structure whose μ is shifted at one slot.
    The kernel is cut out by the odd actions ψ_{∂_k}, which read only the
    odd slots of μ, so an even shift (slot 0) is an equivalent mutant that
    no check can see.  An odd shift (the last slot) turns each ψ_{∂_k}
    into ∂_k + 1, whose kernel is 0: the greedy vectors are not killed,
    omega_kernel's run-time check returns [], and every check over the
    kernel basis then fails on the empty basis, none passing vacuously.
    phi.unit_action and phi.weight_shift never read the kernel basis, so
    they cannot fail here."""
    orig = tensorqp.omega_kernel

    def shifted(S):
        return orig(QPStructure(S.sig, S.omega, shifted_mu(S, slot)))

    plant(monkeypatch, orig, shifted)
    code = main(["check", "all", "--m", "1", "--n", "2", "--deg", "2",
                 "--samples", "20", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == (1 if expected else 0)
    assert {c["id"]: c["counterexample"] for c in checks if not c["pass"]} == expected


def test_psi_lowering_the_zeta_degree_fails_the_filtration_test(monkeypatch):
    """ψ_{∂_k} that also emits a term two ζ-degrees lower, ζ_M ⊗ e_j with
    the two lowest ζ of M dropped.  The bound dim K ≤ dim Ω that
    omega_kernel rests on then has no proof, and the Tier-1 filtration
    test fails."""
    from test_tensorqp import psi_keeps_the_zeta_filtration

    S = QPStructure(Signature(2, 3, False), natural_module(2, 3), zero_mu(2, 3))
    psi_keeps_the_zeta_filtration(S)
    orig = QPStructure.psi_parts

    def lowering(S, parts, vectors):
        outs = orig(S, parts, vectors)
        for w, out in zip(vectors, outs):
            for (e, mask, j), c in w.terms.items():
                if mask_size(mask) >= 2:
                    low = mask & (mask - 1)  # the lowest ζ dropped
                    out._iadd_term((e, low & (low - 1), j), c)
        return outs

    monkeypatch.setattr(QPStructure, "psi_parts", lowering)
    with pytest.raises(AssertionError):
        psi_keeps_the_zeta_filtration(S)


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
    """filt_degree reads the order of the truncated Taylor expansion one
    too low, so an element of S^ℓ (ℓ ≥ 2) is placed in S^{ℓ-1} only.  The
    opposite fault, one too high, passes every suite; the Tier-1 oracle
    tests/test_superpoly.py::test_filt_degree_examples catches it."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, superpoly, superpoly.filt_degree, "return k", "return k - 1")) == expected


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"phi.bridge", "theta.homomorphism", "theta.table"}),
    ("1", "2", {"phi.bridge", "theta.table"}),
    ("2", "2", {"phi.bridge", "theta.table"}),
])
def test_theta_project_storing_the_transpose_fails_the_theta_checks(
        monkeypatch, capsys, m, n, expected):
    """theta_project stores each Taylor entry at (column, row).  The table
    of θ on the linear fields fails, and so does the φ bridge, which acts
    through the projected matrix; at (1,1) the homomorphism check sees it
    too."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, smash, smash.theta_project, "terms[(row, col)] = c",
        "terms[(col, row)] = c")) == expected


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"annihilate.square_ideal", "filtration.mode_membership",
                "filtration.mods2", "phi.bridge", "theta.homomorphism",
                "theta.kernel"}),
    ("1", "2", {"annihilate.square_ideal", "filtration.mode_membership",
                "filtration.mods2", "filtration.plus_rewrite", "phi.bridge",
                "theta.homomorphism"}),
    ("2", "2", {"annihilate.square_ideal", "filtration.mods2",
                "filtration.plus_rewrite", "phi.bridge"}),
])
def test_taylor01_dropping_the_exponent_fails_filtration_and_theta(
        monkeypatch, capsys, m, n, expected):
    """_taylor01 adds c, not c·e_p, to the u_p coefficient of t^e ζ_∅·c.
    filt_degree and theta_project both read their degree-one data through
    it, so filtration degrees and the gl projection go wrong together."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, superpoly, superpoly._taylor01, "(c if e == 1 else c * e)",
        "c")) == expected


LOOP_ACTION_FAULTS = {
    "algebra": (tensorqp, "_smash_act", "shift = ae[0] + be[0] + k",
                "shift = ae[0] + be[0] + (k if tag else 0)",
                {"loop.algebra_action", "loop.leibniz"}),
    "derivation": (vectorfields, "loop_apply_to_poly", "a * b * s", "a * b * -s",
                   {"loop.der_action", "loop.leibniz"}),
}


@pytest.mark.parametrize("fault", sorted(LOOP_ACTION_FAULTS))
@pytest.mark.parametrize("m,n", [("1", "1"), ("1", "2"), ("2", "2")])
def test_loop_action_fault_fails_its_full_signature_check(monkeypatch, capsys, m, n, fault):
    """A fault in one slice-by-slice loop action: the smash-term kernel
    adding the algebra action of t_0^r ⊗ a on t_0^s ⊗ ω at t_0^r instead
    of t_0^{r+s}, or `loop_apply_to_poly` with -s·π(x)·b.
    The same action on the same stored type, computed without the t_0
    split (`left_mul`, `VectorField.apply`), fails loop.algebra_action or
    loop.der_action; loop.leibniz, which uses both loop actions, fails too."""
    module, name, old, new, expected = LOOP_ACTION_FAULTS[fault]
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, module, getattr(module, name), old, new)) == expected


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"centralizer.derivations", "jacobi.smash.antisymmetry",
                "jacobi.smash.super_jacobi", "psi.bracket_hom"}),
    ("1", "2", {"centralizer.derivations", "jacobi.smash.antisymmetry",
                "jacobi.smash.super_jacobi", "psi.bracket_hom"}),
    ("2", "2", {"centralizer.derivations", "jacobi.smash.antisymmetry",
                "psi.bracket_hom"}),
])
def test_smash_inner_bracket_without_its_koszul_sign_fails_the_smash_checks(
        monkeypatch, capsys, m, n, expected):
    """The sign -(-1)^{|pδ||qγ|} of q·γ(p)·δ flipped in the [pδ, qγ] that
    smash_commutator computes inline for each term pair.  The smash
    bracket's antisymmetry and the ψ bracket homomorphism break, and the
    centralizer generators no longer commute with the derivations."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, smash, smash.smash_commutator,
        "if not p_par & (mask_size(qm) + tag_parity(tb)):",
        "if p_par & (mask_size(qm) + tag_parity(tb)):")) == expected


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

    def scaled(*args):
        mod = orig(*args)
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


FIRST = {((-1,), 0, 0): Scalar(1)}  # the first domain vector at (1,2): t^-1 ⊗ e_0, no ζ


def plant_theta(monkeypatch, faulty_image):
    """θ with the image of FIRST replaced by ``faulty_image(image)``."""
    orig = tensorqp.theta_transport

    def faulty(vectors, table):
        vectors = list(vectors)
        return [faulty_image(image) if w == FIRST else image
                for w, image in zip(vectors, orig(vectors, table))]

    plant(monkeypatch, orig, faulty)


def test_theta_losing_a_vector_fails_bijectivity(monkeypatch, capsys):
    code, checks = checks_of(capsys, "iso")
    assert code == 0
    total = {c["id"]: c["cases"] for c in checks}["iso.bijective"]
    plant_theta(monkeypatch, lambda image: {})
    code, checks = checks_of(capsys, "iso")
    failed = {c["id"]: c["counterexample"] for c in checks if not c["pass"]}
    assert code == 1
    assert failed == {
        "iso.bijective": f"rank {total - 1} of {total}, target {total}",
    }


def plant_leaking_theta(monkeypatch):
    """θ moving the image of t^-1 ⊗ e_0 into the next block, times t_1."""
    plant_theta(monkeypatch, lambda image: {
        ((e[0] + 1, *e[1:]), mask, j): c for (e, mask, j), c in image.items()})


def ranked_iso(monkeypatch, capsys):
    """Exit code, JSON checks and the size of every `linalg.rank` call that
    iso makes in ``check iso`` at (1,2); the kernel's own rank of its ζ^0
    parts, made from `tensorqp`, is not counted."""
    ranked = []
    rank = linalg.rank

    def recorded(vectors):
        vectors = list(vectors)
        if sys._getframe(1).f_globals["__name__"] == "rinehart.suites":
            ranked.append(len(vectors))
        return rank(vectors)

    monkeypatch.setattr(linalg, "rank", recorded)
    return (*checks_of(capsys, "iso"), ranked)


def test_theta_leaking_out_of_its_block_trips_the_leak_guard(monkeypatch, capsys):
    """θ moving the image of the first domain vector, t^-1 ⊗ e_0, into the
    next t-exponent block (times t_1).  Every block alone still has full
    rank, so only the leak guard sees the fault: it ranks the whole box in
    one call, where the moved image repeats θ(1 ⊗ e_0), and the report is
    the one a single ranking of the box gives."""
    code, clean = checks_of(capsys, "iso")
    assert code == 0
    total = {c["id"]: c["cases"] for c in clean}["iso.bijective"]
    plant_leaking_theta(monkeypatch)
    code, checks, ranked = ranked_iso(monkeypatch, capsys)
    assert code == 1
    assert ranked == [total]
    want = [dict(c, **{"pass": False, "counterexample":
                       f"rank {total - 1} of {total}, target {total}"})
            if c["id"] == "iso.bijective" else c for c in clean]
    assert checks == want


def test_theta_dropping_the_exponent_shift_trips_the_leak_guard(monkeypatch, capsys):
    """θ that forgets t^e: c·t^e ζ_M ⊗ e_j goes to c·ζ_M·u_j for every e.
    The first block's images then sit at exponent 0, so the leak guard
    ranks the whole box in one call, where every block repeats block 0:
    rank 2^n·dim Ω = 16 of 48.  iso.equivariance sees it too, at its
    first draw with a t-exponent."""
    code, clean = checks_of(capsys, "iso")
    assert code == 0
    total = {c["id"]: c["cases"] for c in clean}["iso.bijective"]
    plant_edit(monkeypatch, tensorqp, tensorqp.theta_transport,
               "e if shift is None else tuple(map(add, e, shift))",
               "tuple(0 * x for x in e) if shift is None else shift")
    code, checks, ranked = ranked_iso(monkeypatch, capsys)
    assert code == 1
    assert ranked == [total]
    failed = {c["id"]: c["counterexample"] for c in checks if not c["pass"]}
    assert failed == {
        "iso.equivariance": "kind=psi",
        "iso.bijective": f"rank 16 of {total}, target {total}",
    }


def test_rank_counting_overlapping_supports_fails_its_examples_and_hides_the_leak(
        monkeypatch, capsys):
    """rank taking its disjoint-support shortcut where supports overlap, so
    that it counts every nonzero vector.  Every per-block rank of
    iso.bijective is disjoint, so no suite sees the fault alone; Tier-1's
    rank examples fail.  Under the leaking θ of the row above, the leak
    guard's whole-box rank now counts the repeated image, and the failing
    report moves back to the clean one."""
    import test_linalg

    code, clean = checks_of(capsys, "iso")
    assert code == 0
    plant_edit(monkeypatch, linalg, linalg.rank,
               "if len(seen) != before + len(support):", "if False:")
    monkeypatch.setattr(test_linalg, "rank", linalg.rank)
    with pytest.raises(AssertionError):
        test_linalg.test_rank_examples()
    assert checks_of(capsys, "iso") == (0, clean)
    plant_leaking_theta(monkeypatch)
    assert checks_of(capsys, "iso") == (0, clean)


@pytest.mark.parametrize("which,old,new", [
    (1, "+ (-1) ** (pa * pb) * S.phi(b, psi_poly(a))",
        "- (-1) ** (pa * pb) * S.phi(b, psi_poly(a))"),
    (2, "+ sign * S.phi(a, S.psi(x, w))", "- sign * S.phi(a, S.psi(x, w))"),
    (3, "inner = S.phi(tjinv, psi_poly(tj)) - psi_1()",
        "inner = S.phi(tjinv, psi_poly(tj)) + psi_1()"),
    (4, "inner = -psi_poly(zp) + S.phi(zp, psi_1())",
        "inner = psi_poly(zp) + S.phi(zp, psi_1())"),
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
    ("1", "1", {"annihilate.square_ideal", "centralizer.algebra", "phi.bridge"}),
    ("1", "2", {"annihilate.square_ideal", "centralizer.algebra"}),
    ("2", "2", {"annihilate.square_ideal", "centralizer.algebra", "phi.bridge"}),
])
def test_t_act_without_the_empty_j_correction_fails_the_square_ideal(
        monkeypatch, capsys, m, n, expected):
    """The -1 # ∂ term of a J = ∅ generator dropped from the terms that
    make_X and t_act share.  The square-ideal combinations then no longer
    annihilate the kernel, and the centralizer generators no longer close
    under the bracket; phi.bridge, which compares t_act with the φ
    operators of θ(ψ(gen)), sees it when a J = ∅ generator is drawn."""
    assert all_failed(capsys, m, n, lambda: plant_edit(
        monkeypatch, smash, smash._x_terms,
        "out.append(((zero, 0, zero, 0, tag), _MINUS_ONE))", "pass")) == expected


def test_t_act_adding_into_its_input_fails_the_aliasing_guard(monkeypatch):
    """The smash-term kernel behind t_act accumulating into the vectors it
    acts on, not into fresh outputs: the Tier-1 guard sees them changed
    after the call."""
    from test_tensorqp import composites_keep_their_inputs

    composites_keep_their_inputs(1, 2)
    plant_edit(monkeypatch, tensorqp, tensorqp._smash_act,
               "outs = images[shift] = [TensorVec._trusted(sig, {}) for _ in vectors]",
               "outs = images[shift] = list(vectors)")
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


@pytest.mark.parametrize("m,n,expected", [
    ("1", "1", {"loop.module_law"}),
    ("1", "2", {"loop.module_law"}),
    ("2", "2", {"loop.module_law", "qp.axiom6[complex]"}),
])
def test_scalar_times_minus_one_keeping_the_imaginary_sign_fails(
        monkeypatch, capsys, m, n, expected):
    """Scalar·(−1), which skips the gcd, negating p but not q.  Real
    values do not see it; a complex coefficient scaled by −1 does, in the
    loop module law and, at (2,2), the complex-field quasi-Poisson axiom 6."""
    def fault():
        source = textwrap.dedent(inspect.getsource(Scalar.__mul__))
        old = "-self.p, -self.q, self.d"
        assert source.count(old) == 1
        scope = dict(vars(scalars))
        exec(source.replace(old, "-self.p, self.q, self.d"), scope)
        monkeypatch.setattr(Scalar, "__mul__", scope["__mul__"])
        monkeypatch.setattr(Scalar, "__rmul__", scope["__mul__"])

    assert all_failed(capsys, m, n, fault) == expected


def test_unit_scalar_path_returning_self_for_minus_one_fails(monkeypatch, capsys):
    """x·Scalar(−1) answered by x itself on the ±1 fast path of
    `Scalar.__mul__`.  Tier-1's unit-product test fails, and so does every
    koszul id at (1,2): a −1 coefficient lost flips signs everywhere."""
    import test_scalars

    test_scalars.test_unit_scalar_products_of_the_sampled_scalars()
    assert failed_checks(capsys, "koszul") == (0, set())
    source = textwrap.dedent(inspect.getsource(Scalar.__mul__))
    old = "return self if c == 1 else -self"
    assert source.count(old) == 1
    scope = dict(vars(scalars))
    exec(source.replace(old, "return self"), scope)
    monkeypatch.setattr(Scalar, "__mul__", scope["__mul__"])
    monkeypatch.setattr(Scalar, "__rmul__", scope["__mul__"])
    with pytest.raises(AssertionError):
        test_scalars.test_unit_scalar_products_of_the_sampled_scalars()
    assert failed_checks(capsys, "koszul") == (1, {
        "koszul.associativity", "koszul.leibniz", "koszul.supercommutativity"})


def test_solve_lookup_accepting_a_key_outside_the_basis_fails_its_tests(
        monkeypatch, capsys, structure12):
    """`solve_columns`' lookup skipping a target's entry at a key outside
    the one-term basis, where it must give None.  The suites never solve
    an image outside the kernel span, so `check phi` still passes; Tier-1's
    lookup examples fail, and so does the induced module's refusal of an
    operator that leaves the kernel."""
    import test_linalg
    import test_tensorqp

    extracted = (structure12, tensorqp.omega_kernel(structure12))
    test_linalg.test_solve_columns_lookup_examples()
    test_tensorqp.test_induced_module_refuses_an_operator_leaving_the_kernel(extracted)
    plant_edit(monkeypatch, linalg, linalg._lookup_solve, "return None", "continue")
    with pytest.raises(AssertionError):
        test_linalg.test_solve_columns_lookup_examples()
    with pytest.raises(pytest.fail.Exception):
        test_tensorqp.test_induced_module_refuses_an_operator_leaving_the_kernel(extracted)
    assert failed_checks(capsys, "phi") == (0, set())


def test_rep_check_skip_ignoring_delta_bc_fails_the_delta_only_test(monkeypatch, capsys):
    """rep_check's skip rule without its δ_bc clause: a pair whose products
    vanish by support is skipped even when δ_bc·E_ad is nonzero.  Every
    module the suites check has nonzero products wherever a δ term is, so
    `check phi` still passes; Tier-1's violation that only δ_bc shows, a
    lone E_02 on the zero module of gl(3,1), is no longer listed."""
    import test_glmodules

    delta_bc = ((0, 2), Scalar(1), ((0, 1), (1, 2)))
    test_glmodules.test_rep_check_sees_violations_only_a_delta_term_shows(*delta_bc)
    plant_edit(monkeypatch, glmodules, glmodules.rep_check,
               "or b == c and entries[(a, d)] ", "")
    monkeypatch.setattr(test_glmodules, "rep_check", glmodules.rep_check)
    with pytest.raises(AssertionError):
        test_glmodules.test_rep_check_sees_violations_only_a_delta_term_shows(*delta_bc)
    assert failed_checks(capsys, "phi") == (0, set())
