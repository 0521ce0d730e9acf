"""Darboux transformations of Schrodinger operators.

A step maps -D**2 + V to -D**2 + V - 2*(log psi)'' using a quasi-rational
eigenfunction psi as seed.  The transformation is implemented at the
potential level; the intertwining identity L_new (D - w) = (D - w) L with
w = (log psi)' serves as an independent exactness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactError
from .diffop import DiffOp, QuasiRat, XRat, compose, eigen_ratio, equals


class DarbouxError(ExactError):
    """Seed rejected: not an eigenfunction.  Carries the non-constant (L psi)/psi."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class DarbouxStep:
    """Record of one transformation: V_out = V_in - 2*(log seed)''."""

    seed: QuasiRat
    eigenvalue: object
    input_v: XRat
    output_v: XRat


def darboux_step(op: DiffOp, seed: QuasiRat) -> tuple:
    """Transform -D**2 + V by one Darboux step; returns (operator, record).

    The eigenvalue is recomputed from the seed, never trusted from context.
    """
    v = op.potential()
    w = seed.log_derivative()
    ratio = eigen_ratio(v, w)
    eigenvalue = ratio.constant_value()
    if eigenvalue is None:
        raise DarbouxError(
            f"seed is not an eigenfunction: (L psi)/psi = {ratio} depends on x",
            residual=ratio)
    new_v = (v - w.derivative() * 2).reduced()
    record = DarbouxStep(seed, eigenvalue, v, new_v)
    return DiffOp.schrodinger(new_v), record


def intertwine_check(op: DiffOp, op_new: DiffOp, seed: QuasiRat) -> bool:
    """Exact operator identity op_new (D - w) = (D - w) op, w = (log seed)'."""
    w = seed.log_derivative()
    a = DiffOp.d() - DiffOp.mul_by(w)
    return equals(compose(op_new, a), compose(a, op))


def potentials_match_up_to_constant(v1: XRat, v2: XRat) -> bool:
    """Equality of derivatives: potentials agree up to an additive constant."""
    return v1.derivative() == v2.derivative()
