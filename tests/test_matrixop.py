import random

import pytest

from bispec.exact import ExactError, ParamScalar, Rat
from bispec.adcond import ad_tower
from bispec.diffop import DiffOp, XPoly, XRat, commutator as scalar_commutator, equals
from bispec.matrixop import (
    MatCondition,
    MatDiffOp,
    mat_ad_tower,
    mat_commutator,
    mat_compose,
    verify_matrix_condition,
)
from bispec.families import MATRIX_ACTION_SIDE, get_entry, probe_entry, verify_entry


def theta_x(size=2, side=MATRIX_ACTION_SIDE):
    return MatDiffOp.scalar_times_identity(XRat.from_poly(XPoly.x()), size, side)


def hermite_matrix_op(side=MATRIX_ACTION_SIDE):
    a = ParamScalar.var("a")
    b = [[XPoly.monomial(1, -2), XPoly.const(2 * a)], [0, XPoly.monomial(1, -2)]]
    return MatDiffOp.from_matrices(
        {2: [[1, 0], [0, 1]], 1: b, 0: [[-2, 0], [0, 0]]}, action_side=side)


def test_commutator_antisymmetry():
    op = hermite_matrix_op()
    assert mat_commutator(op, op).is_zero()


def test_size_and_side_mismatch_rejected():
    op = hermite_matrix_op("left")
    other = hermite_matrix_op("right")
    with pytest.raises(ExactError):
        mat_commutator(op, other)
    small = MatDiffOp.from_matrices({0: [[XPoly.x()]]}, action_side="left")
    with pytest.raises(ExactError):
        mat_commutator(op, small)


@pytest.mark.parametrize("combine", [
    mat_compose, mat_commutator, lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a == b])
def test_every_operation_rejects_size_and_side_mismatch(combine):
    op = hermite_matrix_op("left")
    small = MatDiffOp.from_matrices({0: [[XPoly.x()]]}, action_side="left")
    zero = op - op
    scalar = DiffOp.schrodinger(XRat.from_poly(XPoly.x()))
    for a, b in ((op, hermite_matrix_op("right")), (op, small), (small, op),
                 (zero, small), (small, zero), (op, scalar)):
        with pytest.raises(ExactError):
            combine(a, b)


@pytest.mark.parametrize("make", [
    lambda: MatDiffOp.zero(), lambda: MatDiffOp.identity(), lambda: MatDiffOp.d(),
    lambda: MatDiffOp.mul_by(XRat.const(1)), lambda: MatDiffOp.schrodinger(XRat.const(1))])
def test_scalar_class_constructors_name_the_matrix_ones(make):
    with pytest.raises(ExactError, match="from_matrices.*scalar_times_identity"):
        make()


def _random_scalar_op(rng):
    coeffs = {}
    for order in range(rng.randint(1, 2) + 1):
        poly = XPoly({d: ParamScalar.const(rng.randint(-3, 3)) for d in range(3)})
        if not poly.is_zero():
            coeffs[order] = XRat.from_poly(poly)
    return DiffOp(coeffs) if coeffs else DiffOp({0: XRat.const(1)})


@pytest.mark.parametrize("side", ["left", "right"])
def test_1x1_embedding_reproduces_scalar_commutator(side):
    rng = random.Random(20260810)
    for _ in range(25):
        a = _random_scalar_op(rng)
        b = _random_scalar_op(rng)
        ma = MatDiffOp({r: ((c,),) for r, c in a.coeffs.items()}, 1, side)
        mb = MatDiffOp({r: ((c,),) for r, c in b.coeffs.items()}, 1, side)
        got = mat_commutator(ma, mb)
        want = scalar_commutator(a, b)
        assert equals(DiffOp({r: m[0][0] for r, m in got.coeffs.items()}), want)


def test_first_ad_power_of_hermite_example():
    # [L, xI] has D-coefficient 2I and order-0 coefficient B(x)
    op = hermite_matrix_op()
    a1 = mat_ad_tower(op, theta_x(), 1)[1]
    assert a1.order() == 1
    two_eye = ((XRat.const(2), XRat.const(0)), (XRat.const(0), XRat.const(2)))
    for i in range(2):
        for j in range(2):
            assert a1.coeff(1)[i][j] == two_eye[i][j]
            assert a1.coeff(0)[i][j] == op.coeff(1)[i][j]


def test_mat_ad_power_requires_order_zero_theta():
    op = hermite_matrix_op()
    with pytest.raises(ExactError):
        mat_ad_tower(op, op, 1)[1]


def test_hermite_condition_family_and_independence():
    entry = get_entry("matrix:hermite:1")
    assert verify_entry(entry).holds
    # a factor outside the top-row family breaks the identity
    op = hermite_matrix_op()
    off = MatCondition(terms=[(2, [[0, 0], [1, 0]]), (0, [[0, 0], [-4, 0]])],
                       theta=theta_x())
    assert not verify_matrix_condition(op, off).holds
    # the two directions are conditions individually
    for mat in ([[1, 0], [0, 0]], [[0, 1], [0, 0]]):
        cond = MatCondition(
            terms=[(2, mat), (0, [[-4 * v for v in row] for row in mat])],
            theta=theta_x())
        assert verify_matrix_condition(op, cond).holds


def test_right_factor_composition_associative():
    op = hermite_matrix_op()
    a2 = mat_ad_tower(op, theta_x(), 2)[2]
    m1 = [[1, 2], [0, 1]]
    m2 = [[0, 1], [3, 0]]
    prod = [[sum(m1[i][l] * m2[l][j] for l in range(2)) for j in range(2)] for i in range(2)]
    lhs = a2.right_factor(m1).right_factor(m2)
    rhs = a2.right_factor(prod)
    assert lhs == rhs


def test_laguerre_conditions():
    for cid in ("matrix:laguerre:1a", "matrix:laguerre:1b", "matrix:laguerre:2"):
        assert verify_entry(get_entry(cid)).holds, cid
    assert not verify_entry(get_entry("matrix:laguerre:1a-printed")).holds


def test_convention_probe_on_catalog():
    probe = probe_entry(get_entry("matrix:hermite:1"))
    assert MATRIX_ACTION_SIDE in probe["sides"]
    # under the left action the identity is a genuine constraint: it fails for
    # an off-family factor, while under the right action A_2 - 4 A_0 vanishes
    # identically and carries no factor information
    op = hermite_matrix_op("right")
    a2 = mat_ad_tower(op, theta_x(2, "right"), 2)[2]
    a0 = theta_x(2, "right")
    assert (a2 - a0.right_factor([[4, 0], [0, 4]])).is_zero()
    op_left = hermite_matrix_op("left")
    a2l = mat_ad_tower(op_left, theta_x(2, "left"), 2)[2]
    assert not (a2l - theta_x(2, "left").right_factor([[4, 0], [0, 4]])).is_zero()


def test_1x1_embedding_reproduces_scalar_conditions():
    # scalar catalog claims survive the 1x1 matrix embedding
    from bispec.families import catalog_ids
    checked = 0
    for cid in catalog_ids():
        entry = get_entry(cid)
        if entry.kind != "scalar" or not entry.expect_holds:
            continue
        if entry.condition.top_order > 4:
            continue  # keep the embedding suite fast
        op = entry.operator
        mop = MatDiffOp({r: ((c,),) for r, c in op.coeffs.items()}, 1, MATRIX_ACTION_SIDE)
        mtheta = MatDiffOp.scalar_times_identity(
            XRat.from_poly(entry.theta), 1, MATRIX_ACTION_SIDE)
        terms = [(j, [[w]]) for j, w in entry.condition.items()]
        report = verify_matrix_condition(mop, MatCondition(terms=terms, theta=mtheta))
        assert report.holds, cid
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("cid, top", [
    ("laguerre-step:1", 5), ("hermite-exc:k=2", 4), ("ansatz:A4-40A2+144A0:10", 4)])
def test_1x1_tower_matches_closed_form_tower(cid, top, side):
    # the generic Leibniz composition of the matrix path, reduced after every
    # step, is an oracle for the closed-form Schrodinger tower of adcond
    entry = get_entry(cid)
    want = ad_tower(entry.operator, entry.theta, top)
    mop = MatDiffOp({r: ((c,),) for r, c in entry.operator.coeffs.items()}, 1, side)
    mtheta = MatDiffOp.scalar_times_identity(XRat.from_poly(entry.theta), 1, side)
    got = mat_ad_tower(mop, mtheta, top)
    for j, (a, m) in enumerate(zip(want, got)):
        assert a.coeffs.keys() == m.coeffs.keys(), (cid, j)
        for r, c in a.coeffs.items():
            entry_rj = m.coeffs[r][0][0]
            assert entry_rj == c, (cid, j, r)
            assert len(entry_rj.factors) == len(c.factors), (cid, j, r)
            for (b1, e1), (b2, e2) in zip(entry_rj.factors, c.factors):
                assert b1 == b2 and e1 == e2, (cid, j, r)
