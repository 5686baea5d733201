import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zero_action_module
from rinehart import glmodules
from rinehart.glmodules import GlModule, MuVector, natural_module, rep_check
from rinehart.linalg import matmul, zeros
from rinehart.scalars import Scalar


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


@st.composite
def perturbed_modules(draw):
    """Natural and zero modules, some with up to four entries overwritten
    or rescaled; an entry at the wrong parity breaks homogeneity."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        mod = natural_module(m, n)
    else:
        dim = draw(st.integers(1, 4))
        parities = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
        mod = zero_action_module(m, n, dim, parities)
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
