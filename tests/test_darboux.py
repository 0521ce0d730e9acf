import pytest

from bispec.exact import PS_ONE, ParamScalar, Rat
from bispec.diffop import DiffOp, QuasiRat, XPoly, XRat, equals
from bispec.darboux import (
    DarbouxError,
    darboux_step,
    intertwine_check,
    potentials_match_up_to_constant,
)
from bispec.families import laguerre_catalog, laguerre_phi

FREE = DiffOp.schrodinger(XRat.const(0))
HARMONIC = DiffOp.schrodinger(XPoly.monomial(2))
SEED_X = QuasiRat(((XPoly.x(), PS_ONE),))
SEED_GAUSS_X = QuasiRat(((XPoly.x(), PS_ONE),), exp_part=XPoly.monomial(2, Rat(-1, 2)))


def test_step_from_free_particle():
    new_op, record = darboux_step(FREE, SEED_X)
    want = DiffOp.schrodinger(XRat.from_ratio(XPoly.const(2), XPoly.monomial(2)))
    assert equals(new_op, want)
    assert record.eigenvalue == ParamScalar.const(0)
    assert intertwine_check(FREE, new_op, SEED_X)


def test_step_from_harmonic_oscillator():
    new_op, record = darboux_step(HARMONIC, SEED_GAUSS_X)
    want_v = (XRat.from_poly(XPoly({2: PS_ONE, 0: ParamScalar.const(2)}))
              + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2)))
    assert record.output_v == want_v
    assert record.eigenvalue == ParamScalar.const(3)
    assert intertwine_check(HARMONIC, new_op, SEED_GAUSS_X)
    # matches the x^2 + 2/x^2 solution entry up to the additive constant 2
    solution_v = (XRat.from_poly(XPoly.monomial(2))
                  + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2)))
    assert potentials_match_up_to_constant(record.output_v, solution_v)
    assert record.output_v != solution_v


def test_seed_must_be_eigenfunction():
    bad = QuasiRat(((XPoly.from_list([1, 1]), PS_ONE),))  # x+1 under the oscillator
    with pytest.raises(DarbouxError) as err:
        darboux_step(HARMONIC, bad)
    assert err.value.residual is not None
    assert err.value.residual.constant_value() is None


def test_laguerre_one_step_reproduces_catalog():
    # the seed phi_1 transforms the classical operator into the one-step
    # potential, up to the spectral additive constant, fully symbolically in k
    base = laguerre_catalog(0)
    new_op, record = darboux_step(base.operator, laguerre_phi(1))
    assert intertwine_check(base.operator, new_op, laguerre_phi(1))
    displayed = laguerre_catalog(1).operator.potential()
    assert potentials_match_up_to_constant(record.output_v, displayed)
    k = ParamScalar.var("k")
    assert record.eigenvalue == (k * k - 8) / 8


def test_intertwine_detects_perturbation():
    new_op, _ = darboux_step(FREE, SEED_X)
    perturbed = new_op + DiffOp.identity()
    assert not intertwine_check(FREE, perturbed, SEED_X)


def test_outputs_are_rational():
    for op, seed in ((FREE, SEED_X), (HARMONIC, SEED_GAUSS_X)):
        _, record = darboux_step(op, seed)
        assert isinstance(record.output_v, XRat)
