"""Exact symbolic computation for Laurent-Grassmann derivation algebras,
their smash products, and tensor modules, with zero-tolerance
verification suites over Gaussian rationals."""

from .glmatrix import GlMatrix, gl_bracket
from .glmodules import GlModule, MuVector, natural_module, rep_check
from .parser import ParseError, format_element, parse_element, parse_scalar_literal
from .scalars import Scalar
from .smash import (
    SmashElement,
    make_X,
    psi_map,
    smash_commutator,
    tau,
    theta_project,
    x_decompose,
)
from .superpoly import (
    Signature,
    SuperPoly,
    WeightVector,
    derive,
    filt_degree,
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
    loop_smash_act,
    omega_extract,
    omega_greedy,
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
    qp_product,
    t0_embed,
    t0_slices,
    vf_bracket,
    weight_of,
)

__version__ = "0.1.0"
