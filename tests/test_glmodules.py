import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.glmodules import (
    GlModule,
    MuVector,
    natural_module,
    rep_check,
    zero_action_module,
)
from rinehart.linalg import matmul, zeros
from rinehart.scalars import Scalar


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
            assert rep_check(natural_module(m, n)).ok


def test_rep_check_catches_perturbation():
    mod = natural_module(1, 1)
    # recompute the relation with a perturbed entry: E_{0,1}e_1 = 2e_0 breaks
    # [E_{0,1}, E_{1,0}] = E_{0,0} - E_{1,1}
    act = dict(mod.act)
    bad = [[Scalar(0)] * 3 for _ in range(3)]
    bad[0][1] = Scalar(2)
    act[(0, 1)] = bad
    broken = GlModule(1, 1, 3, mod.parities, act)
    report = rep_check(broken)
    assert not report.ok
    assert any(v[1] == ((0, 1), (1, 0)) for v in report.violations)


def test_rep_check_zero_action_passes():
    assert rep_check(zero_action_module(1, 1, 4)).ok


def test_parity_violation_detected():
    mod = natural_module(1, 1)
    act = dict(mod.act)
    bad = [[Scalar(0)] * 3 for _ in range(3)]
    bad[2][0] = Scalar(1)  # odd entry inside an even action
    act[(0, 0)] = [
        [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(act[(0, 0)], bad)
    ]
    broken = GlModule(1, 1, 3, mod.parities, act)
    assert any(v[0] == "parity" for v in rep_check(broken).violations)


def test_mu_vector_constraint():
    MuVector(1, 1, (Scalar(1), Scalar(2), Scalar(0)))
    with pytest.raises(ValueError):
        MuVector(1, 1, (Scalar(1), Scalar(2), Scalar(1)))
    with pytest.raises(ValueError):
        MuVector(1, 1, (Scalar(1), Scalar(2)))


def test_diagonal_actions_commute_after_rep_check(sampler):
    mod = natural_module(2, 1)
    hs = [mod.act[(a, a)] for a in range(4)]
    for i, hi in enumerate(hs):
        for hj in hs[i + 1:]:
            assert matmul(hi, hj) == matmul(hj, hi)


def dense_rep_check(mod):
    """The dense rep_check: two dim x dim products per pair of actions.
    Indices up to m are even, the rest odd, written out here."""
    violations = []
    gl = mod.m + 1 + mod.n
    par = lambda a, b: ((a > mod.m) + (b > mod.m)) & 1
    for (a, b), mat in mod.act.items():
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
        mab = mod.act[(a, b)]
        pab = par(a, b)
        for (c, d) in pairs:
            mcd = mod.act[(c, d)]
            pcd = par(c, d)
            lhs = matmul(mab, mcd)
            back = matmul(mcd, mab)
            sign = Scalar(-1 if (pab and pcd) else 1)
            rhs = zeros(mod.dim, mod.dim)
            if b == c:
                mad = mod.act[(a, d)]
                for i in range(mod.dim):
                    for j in range(mod.dim):
                        rhs[i][j] = rhs[i][j] + mad[i][j]
            if d == a:
                mcb = mod.act[(c, b)]
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
    act = {ab: [list(row) for row in mat] for ab, mat in mod.act.items()}
    index = st.integers(0, m + n)
    entry = st.integers(0, mod.dim - 1)
    for _ in range(draw(st.integers(0, 4))):
        row = act[(draw(index), draw(index))][draw(entry)]
        j = draw(entry)
        c = draw(st.builds(Scalar, small, small))
        row[j] = row[j] * c if draw(st.booleans()) else c
    return GlModule(m, n, mod.dim, mod.parities, act)


@settings(max_examples=150, deadline=None)
@given(mod=perturbed_modules())
def test_rep_check_lists_the_dense_violations_in_order(mod):
    assert rep_check(mod).violations == dense_rep_check(mod)
