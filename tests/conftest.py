import json
import random

import pytest

from rinehart import GlModule, MuVector, QPStructure, Signature, TensorVec, natural_module
from rinehart.config import module_to_dict
from rinehart.sampling import Sampler


def zero_action_module(m, n, dim, parities=None):
    """dim-dimensional module on which every E_{α,β} acts by zero."""
    dirs = Signature(m, n).directions()
    return GlModule(m, n, dim, parities or (0,) * dim,
                    {(a, b): [[]] * dim for a in dirs for b in dirs})


def zero_mu(m, n):
    """The zero shift vector at (m, n)."""
    return MuVector(m, n, (0,) * (m + n + 1))


def theta_reference(w, basis):
    """θ by its definition: c·t^e ζ_M ⊗ e_j goes to c·t^e ζ_M·basis[j],
    one `Sparse._iadd` per term of w."""
    out = TensorVec.zero(w.sig)
    for (e, mask, j), c in w.terms.items():
        out._iadd(basis[j], c, (e, mask))
    return out


def natural_config_dict(m, n):
    """The config document of the natural module at (m, n), μ = 0."""
    return module_to_dict(natural_module(m, n), zero_mu(m, n))


def write_natural_config(path, m, n):
    path.write_text(json.dumps(natural_config_dict(m, n), indent=1))


@pytest.fixture
def sig11():
    return Signature(1, 1, True)


@pytest.fixture
def sig12():
    return Signature(1, 2, True)


@pytest.fixture
def sig22():
    return Signature(2, 2, True)


@pytest.fixture
def sampler():
    return Sampler(random.Random(20240601), deg=2)


@pytest.fixture
def structure12():
    """Tensor-module structure at (m, n) = (1, 2), natural module, a shift
    vector with a nonzero imaginary part."""
    from rinehart.scalars import Scalar
    from fractions import Fraction

    sig = Signature(1, 2, False)
    mu = MuVector(1, 2, [Scalar(Fraction(1, 2), Fraction(1, 3)),
                         Scalar(Fraction(-2, 3))] + [Scalar(0)] * 2)
    return QPStructure(sig, natural_module(1, 2), mu)
