"""Exact commutator algebra for second-order differential operators.

The package verifies and discovers operator identities of the form
sum_j a_j * ad L^j(Theta) = 0 for Schrodinger operators L = -D^2 + V with
exact rational-function coefficients, performs Darboux transformations,
generates the polynomial constraint systems of the quartic/quintic solution
method, and extends the machinery to matrix-valued operators.
"""

from .exact import (
    MPoly,
    ParamScalar,
    Rat,
    declare_param,
    nullspace,
)
from .diffop import (
    DiffOp,
    QuasiRat,
    XPoly,
    XRat,
    apply_op,
    commutator,
    compose,
    equals,
    is_eigenfunction,
    log_derivative,
)
from .adcond import (
    ConditionReport,
    WeightVector,
    ad_power,
    ad_tower,
    fit_weights,
    heisenberg_series,
    hermite_new_weights,
    reach_weights,
    solve_theta,
    verify_condition,
)
from .darboux import DarbouxError, DarbouxStep, darboux_step, intertwine_check
from .ansatz import AnsatzSystem, build_V, generate_system, verify_candidate
from .matrixop import (
    MatCondition,
    MatDiffOp,
    convention_probe,
    mat_commutator,
    verify_matrix_condition,
)
from .families import (
    CatalogEntry,
    ansatz_solution_catalog,
    catalog_ids,
    exceptional_hermite,
    get_entry,
    hermite_poly,
    laguerre_catalog,
    verify_entry,
)
from .expr import ParseError, parse_expr, render

__all__ = [name for name in dir() if not name.startswith("_")]
