import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zero_action_module
from rinehart import glmodules
from rinehart.glmodules import GlModule, MuVector, natural_module, rep_check
from rinehart.linalg import matmul, zeros
from rinehart.scalars import Scalar
from rinehart.superpoly import Signature


def dense(mod):
    """Each action of ``mod`` as dense rows, the reference form."""
    act = {}
    for ab, cols in mod.columns.items():
        act[ab] = zeros(mod.dim, mod.dim)
        for j, col in enumerate(cols):
            for i, c in col:
                act[ab][i][j] = c
    return act


def from_dense(m, n, parities, act):
    """The module whose actions have the dense rows ``act``."""
    dim = len(parities)
    columns = {ab: [[(i, row[j]) for i, row in enumerate(mat) if row[j]]
                    for j in range(dim)]
               for ab, mat in act.items()}
    return GlModule(m, n, dim, parities, columns)


def test_natural_module_shape():
    mod = natural_module(1, 1)
    assert mod.dim == 3
    assert mod.parities == (0, 0, 1)
    # E_{0,1} e_1 = e_0 and kills e_0
    col = mod.column(0, 1, 1)
    assert col == [(0, Scalar(1))]
    assert mod.column(0, 1, 0) == []


def test_rep_check_passes_for_natural():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            assert rep_check(natural_module(m, n)) == []


def test_rep_check_catches_perturbation():
    mod = natural_module(1, 1)
    # recompute the relation with a perturbed entry: E_{0,1}e_1 = 2e_0 breaks
    # [E_{0,1}, E_{1,0}] = E_{0,0} - E_{1,1}
    columns = dict(mod.columns)
    columns[(0, 1)] = [[], [(0, Scalar(2))], []]
    broken = GlModule(1, 1, 3, mod.parities, columns)
    violations = rep_check(broken)
    assert violations != []
    assert any(v[1] == ((0, 1), (1, 0)) for v in violations)


def test_rep_check_zero_action_passes():
    assert rep_check(zero_action_module(1, 1, 4)) == []


def test_parity_violation_detected():
    mod = natural_module(1, 1)
    columns = dict(mod.columns)
    # an odd entry (2,0) inside the even action E_{0,0}
    columns[(0, 0)] = [[(0, Scalar(1)), (2, Scalar(1))], [], []]
    broken = GlModule(1, 1, 3, mod.parities, columns)
    assert any(v[0] == "parity" for v in rep_check(broken))


def test_mu_vector_constraint():
    MuVector(1, 1, (Scalar(1), Scalar(2), Scalar(0)))
    with pytest.raises(ValueError):
        MuVector(1, 1, (Scalar(1), Scalar(2), Scalar(1)))
    with pytest.raises(ValueError):
        MuVector(1, 1, (Scalar(1), Scalar(2)))


def test_diagonal_actions_commute_after_rep_check(sampler):
    mod = natural_module(2, 1)
    act = dense(mod)
    hs = [act[(a, a)] for a in range(4)]
    for i, hi in enumerate(hs):
        for hj in hs[i + 1:]:
            assert matmul(hi, hj) == matmul(hj, hi)


def dense_rep_check(mod):
    """The dense rep_check: two dim x dim products per pair of actions.
    Indices up to m are even, the rest odd, written out here."""
    violations = []
    act = dense(mod)
    gl = mod.m + 1 + mod.n
    par = lambda a, b: ((a > mod.m) + (b > mod.m)) & 1
    for (a, b), mat in act.items():
        p = par(a, b)
        for u in range(mod.dim):
            for v in range(mod.dim):
                if mat[u][v] and (mod.parities[u] + mod.parities[v]) % 2 != p:
                    violations.append(("parity", (a, b), f"entry ({u},{v}) breaks parity"))
                    break
            else:
                continue
            break
    pairs = [(a, b) for a in range(gl) for b in range(gl)]
    for (a, b) in pairs:
        mab = act[(a, b)]
        pab = par(a, b)
        for (c, d) in pairs:
            mcd = act[(c, d)]
            pcd = par(c, d)
            lhs = matmul(mab, mcd)
            back = matmul(mcd, mab)
            sign = Scalar(-1 if (pab and pcd) else 1)
            rhs = zeros(mod.dim, mod.dim)
            if b == c:
                mad = act[(a, d)]
                for i in range(mod.dim):
                    for j in range(mod.dim):
                        rhs[i][j] = rhs[i][j] + mad[i][j]
            if d == a:
                mcb = act[(c, b)]
                for i in range(mod.dim):
                    for j in range(mod.dim):
                        rhs[i][j] = rhs[i][j] - sign * mcb[i][j]
            ok = all(
                lhs[i][j] - sign * back[i][j] == rhs[i][j]
                for i in range(mod.dim)
                for j in range(mod.dim)
            )
            if not ok:
                violations.append(
                    ("commutator", ((a, b), (c, d)), "supercommutator relation fails")
                )
    return violations


small = st.integers(-2, 2)


def dual_module(m, n):
    """The dual of the natural module: E_ab acts as -(-1)^{(|a|+|b|)|a|}
    times the elementary matrix at (b, a)."""
    sig = Signature(m, n)
    dirs = sig.directions()
    par = sig.dir_parity
    columns = {(a, b): [[(b, Scalar(-(-1) ** ((par(a) + par(b)) * par(a))))] if g == a
                        else [] for g in dirs]
               for a in dirs for b in dirs}
    return GlModule(m, n, len(dirs), map(par, dirs), columns)


@st.composite
def perturbed_modules(draw):
    """Natural, dual and zero modules, some with up to four entries
    overwritten or rescaled; an entry at the wrong parity breaks
    homogeneity.  A perturbed zero module is a random sparse one, where
    most products vanish and a written entry often breaks a relation that
    only a δ term shows."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("natural", "dual", "zero")))
    if kind == "zero":
        dim = draw(st.integers(1, 4))
        parities = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
        mod = zero_action_module(m, n, dim, parities)
    else:
        mod = (natural_module if kind == "natural" else dual_module)(m, n)
    act = dense(mod)
    index = st.integers(0, m + n)
    entry = st.integers(0, mod.dim - 1)
    for _ in range(draw(st.integers(0, 4))):
        row = act[(draw(index), draw(index))][draw(entry)]
        j = draw(entry)
        c = draw(st.builds(Scalar, small, small))
        row[j] = row[j] * c if draw(st.booleans()) else c
    return from_dense(m, n, mod.parities, act)


@settings(max_examples=150, deadline=None)
@given(mod=perturbed_modules())
def test_rep_check_lists_the_dense_violations_in_order(mod):
    """dense_rep_check evaluates every ordered pair; rep_check, which
    evaluates each unordered pair once and skips those zero by support,
    lists the same violations."""
    assert rep_check(mod) == dense_rep_check(mod)


def test_a_failing_pair_is_listed_in_both_orders():
    """E_11 = 2 on the one-dimensional zero module of gl(2,1) breaks the
    unordered pairs {E_01, E_10} and {E_12, E_21} and no other: each is
    evaluated once, and both of its orders are listed, row-major.  (A
    search over single-entry perturbations of the small natural and zero
    modules found none that breaks only one unordered pair ab ≠ cd.)"""
    mod = zero_action_module(1, 1, 1)
    columns = dict(mod.columns)
    columns[(1, 1)] = [[(0, Scalar(2))]]
    broken = GlModule(1, 1, 1, mod.parities, columns)
    violations = rep_check(broken)
    assert [v[1] for v in violations] == [
        ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2))]
    assert violations == dense_rep_check(broken)


def test_a_rep_check_dropping_the_mirrored_pair_is_caught(monkeypatch):
    source = inspect.getsource(glmodules.rep_check)
    old = "failing.update(((i, j), (j, i)))"
    assert source.count(old) == 1
    scope = dict(vars(glmodules))
    exec(source.replace(old, "failing.add((i, j))"), scope)
    monkeypatch.setitem(globals(), "rep_check", scope["rep_check"])
    with pytest.raises(AssertionError):
        test_a_failing_pair_is_listed_in_both_orders()


@pytest.mark.parametrize("broken, message", [
    (lambda cols: cols.pop((1, 0)), "missing action E_1_0"),
    (lambda cols: cols[(0, 1)].pop(), "needs 3 columns"),
    (lambda cols: cols[(0, 1)].__setitem__(1, [(3, Scalar(1))]), "ascending rows"),
    (lambda cols: cols[(0, 1)].__setitem__(1, [(-1, Scalar(1))]), "ascending rows"),
    (lambda cols: cols[(0, 1)].__setitem__(1, [(1, Scalar(1)), (0, Scalar(1))]),
     "ascending rows"),
    (lambda cols: cols[(0, 1)].__setitem__(1, [(0, Scalar(0))]), "nonzero entries"),
])
def test_constructor_rejects_malformed_columns(broken, message):
    mod = natural_module(1, 1)
    columns = {ab: list(cols) for ab, cols in mod.columns.items()}
    broken(columns)
    with pytest.raises(ValueError, match=message):
        GlModule(1, 1, 3, mod.parities, columns)


# ---------- rep_check skips the pairs that vanish by support ----------

@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_natural_dual_and_trivial_modules_are_representations(m, n):
    for mod in (natural_module(m, n), dual_module(m, n), zero_action_module(m, n, 3, (0, 1, 1))):
        assert rep_check(mod) == dense_rep_check(mod) == []


@pytest.mark.parametrize("ab,value,first", [
    ((0, 2), Scalar(1), ((0, 1), (1, 2))),  # [E_01, E_12] = E_02: δ_bc
    ((1, 1), Scalar(2), ((0, 1), (1, 0))),  # [E_01, E_10] = E_00 - E_11: δ_da
])
def test_rep_check_sees_violations_only_a_delta_term_shows(ab, value, first):
    """One entry, in E_ab, on the one-dimensional zero module of gl(3,1),
    where E_ab is even for a, b ≤ 2.  A product of two actions is nonzero
    only for E_ab·E_ab, so each failing pair sees E_ab through a δ term;
    ``first`` is evaluated in the order that puts E_ab in its δ_bc (the
    first case) or its δ_da (the second)."""
    mod = zero_action_module(2, 1, 1)
    columns = dict(mod.columns)
    columns[ab] = [[(0, value)]]
    broken = GlModule(2, 1, 1, mod.parities, columns)
    violations = rep_check(broken)
    assert violations == dense_rep_check(broken)
    pairs = [v[1] for v in violations]
    assert first in pairs and all(v[0] == "commutator" for v in violations)
    for (a, b), (c, d) in pairs:
        assert (a, b) != ab or (c, d) != ab
        assert b == c and (a, d) == ab or d == a and (c, b) == ab


def test_rep_check_skips_the_pairs_zero_by_support(monkeypatch):
    """On the natural module E_ab E_cd = δ_bc E_ad, so a pair with b ≠ c
    and d ≠ a has both products and both δ terms 0 and is skipped; an
    evaluated pair accumulates its two products and its δ terms."""
    mod = natural_module(2, 3)
    calls = []
    accumulate = glmodules._accumulate
    monkeypatch.setattr(glmodules, "_accumulate",
                        lambda *args: calls.append(1) or accumulate(*args))
    assert rep_check(mod) == []
    pairs = list(mod.columns)
    evaluated = [(a, b, c, d) for i, (a, b) in enumerate(pairs) for c, d in pairs[i:]
                 if b == c or d == a]
    assert (len(pairs), len(evaluated)) == (36, 201)  # of 666 unordered pairs
    assert len(calls) == sum(2 + (b == c) + (d == a) for a, b, c, d in evaluated)
