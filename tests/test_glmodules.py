import pytest

from rinehart.glmodules import (
    GlModule,
    MuVector,
    natural_module,
    rep_check,
    zero_action_module,
)
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
    from rinehart.linalg import matmul

    mod = natural_module(2, 1)
    hs = [mod.act[(a, a)] for a in range(4)]
    for i, hi in enumerate(hs):
        for hj in hs[i + 1:]:
            assert matmul(hi, hj) == matmul(hj, hi)
