"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact (tolerance zero): claims are operator identities over
exact rational arithmetic, so a criterion either holds identically or fails.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

from contextlib import contextmanager

from bispec.exact import ParamScalar, Rat
from bispec.diffop import DiffOp, XPoly, XRat, equals
from bispec.adcond import (
    WeightVector,
    fit_weights,
    heisenberg_series,
    hermite_new_weights,
    reach_weights,
    solve_theta,
    verify_condition,
)
from bispec.ansatz import generate_system, verify_candidate
from bispec.darboux import darboux_step, intertwine_check, potentials_match_up_to_constant
from bispec.families import (
    MATRIX_ACTION_SIDE,
    STEP2_WEIGHTS_PRINTED,
    ansatz_solution_catalog,
    ansatz_solution_count,
    catalog_ids,
    exceptional_hermite,
    get_entry,
    laguerre_catalog,
    laguerre_phi,
    verify_entry,
)
from bispec.matrixop import MatCondition, MatDiffOp, verify_matrix_condition


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL - {text}")
        raise
    print(f"criterion {number:02d} PASS - {text}")


def test_criterion_01_reach_weights():
    with criterion(1, "ladder weight vectors for linear spectra"):
        assert reach_weights(1, 1) == WeightVector({3: 1, 1: -1})
        assert reach_weights(2, 1) == WeightVector({5: 1, 3: -5, 1: 4})
        assert reach_weights(1, 2) == WeightVector({3: 1, 1: -4})
        assert reach_weights(2, 2) == WeightVector({5: 1, 3: -20, 1: 64})


def test_criterion_02_new_hermite_weights():
    with criterion(2, "lowered condition weights for k = 0..4"):
        assert hermite_new_weights(0) == WeightVector({2: 1, 0: -4})
        assert hermite_new_weights(1) == WeightVector({3: 1, 1: -16})
        assert hermite_new_weights(2) == WeightVector({4: 1, 2: -40, 0: 144})
        assert hermite_new_weights(3) == WeightVector({5: 1, 3: -80, 1: 1024})
        assert hermite_new_weights(4) == WeightVector(
            {6: 1, 4: -140, 2: 4144, 0: -14400})


def test_criterion_03_exceptional_hermite_conditions_hold():
    with criterion(3, "exceptional Hermite conditions hold exactly (k=0..4, partition 2+2)"):
        for k in range(5):
            op, theta = exceptional_hermite(k)
            report = verify_condition(op, theta, hermite_new_weights(k))
            assert report.holds, f"k={k}"
        entry = get_entry("hermite-exc:p22")
        assert entry.theta == XPoly({5: ParamScalar.const(4), 1: ParamScalar.const(15)})
        assert verify_entry(entry).holds


def test_criterion_04_negative_controls():
    with criterion(4, "stronger even-order conditions fail (k=1 and k=3)"):
        op1, theta1 = exceptional_hermite(1)
        report = verify_condition(op1, theta1, WeightVector({2: 1, 0: -16}))
        assert not report.holds and not report.residual.is_zero()
        op3, theta3 = exceptional_hermite(3)
        report = verify_condition(op3, theta3, WeightVector({4: 1, 2: -80, 0: 1024}))
        assert not report.holds and not report.residual.is_zero()


def test_criterion_05_implication_chain():
    with criterion(5, "k=1 ladder condition follows from the lowered one"):
        op, theta = exceptional_hermite(1)
        # identity as weight polynomials: (ad^2 - 4)(A_3 - 16 A_1)
        lowered = hermite_new_weights(1)
        ladder = WeightVector({5: 1, 3: -20, 1: 64})
        assert lowered.quadratic_step(4) == ladder
        assert verify_condition(op, theta, ladder).holds


def test_criterion_06_darboux_reproduces_one_step_potential():
    with criterion(6, "Darboux step with seed phi_1 reproduces the displayed "
                      "potential, symbolic k"):
        base = laguerre_catalog(0).operator
        seed = laguerre_phi(1)
        new_op, record = darboux_step(base, seed)
        assert intertwine_check(base, new_op, seed)
        displayed = laguerre_catalog(1).operator.potential()
        assert potentials_match_up_to_constant(record.output_v, displayed)


def test_criterion_07_chain_conditions_and_weight_determination():
    with criterion(7, "chain conditions: step-1 solved, step-3 verified, "
                      "step-2 weight determined (-36, not the printed -34)"):
        # step 1: solve_theta finds a degree <= 4 eigenvalue polynomial
        step1 = laguerre_catalog(1)
        found = solve_theta(step1.operator, step1.condition, 4)
        assert len(found.thetas) == 1
        assert verify_condition(step1.operator, found.thetas[0], step1.condition).holds

        # step 2: the determination is the artifact.  With the frozen theta the
        # fitted weight space is exactly the product-formula vector...
        step2 = laguerre_catalog(2)
        fitted = fit_weights(step2.operator, step2.theta, [7, 5, 3, 1])
        assert len(fitted.vectors) == 1
        resolved = fitted.vectors[0].monic()
        assert resolved == reach_weights(3, 1)
        assert resolved.get(1) == ParamScalar.const(-36)
        # ... the printed -34 fails outright and admits no other theta, while
        # -36 admits exactly one ray
        assert not verify_condition(step2.operator, step2.theta,
                                    STEP2_WEIGHTS_PRINTED).holds
        none_printed = solve_theta(step2.operator, STEP2_WEIGHTS_PRINTED, 6)
        assert none_printed.thetas == []
        one_product = solve_theta(step2.operator, reach_weights(3, 1), 6)
        assert len(one_product.thetas) == 1
        print("        step-2 A_1 weight: -36 (ladder product formula), "
              "not -34 (as printed with the two-step display)")

        # step 3: the displayed weights 1, -30, 273, -820, 576 are verified by
        # the three-step potential; as printed (tau constant '12k^4-32k^2-k')
        # the identity fails, with the Wronskian constant -k^6+12k^4-32k^2 it
        # holds exactly
        printed = laguerre_catalog(3)
        assert not verify_entry(printed).holds
        corrected = get_entry("laguerre-step:3-wronskian")
        assert verify_entry(corrected).holds
        print("        step-3 tau constant: -k^6+12k^4-32k^2 (seed Wronskian); "
              "the printed '-k' term admits no eigenvalue polynomial")


def test_criterion_08_solution_lists_and_forced_relations():
    with criterion(8, "all displayed solutions verify; forced coefficient "
                      "relations reproduced"):
        weights = {
            "A2-4A0": WeightVector({2: 1, 0: -4}),
            "A3-16A1": WeightVector({3: 1, 1: -16}),
            "A5-5A3+4A1": WeightVector({5: 1, 3: -5, 1: 4}),
            "A4-40A2+144A0": WeightVector({4: 1, 2: -40, 0: 144}),
        }
        for equation, w in weights.items():
            for index in range(1, ansatz_solution_count(equation) + 1):
                theta, v = ansatz_solution_catalog(equation, index)
                assert verify_candidate(w, theta, v).holds, f"{equation}:{index}"
        forced5 = dict(generate_system(weights["A5-5A3+4A1"]).forced)
        a3, a4 = ParamScalar.var("a3"), ParamScalar.var("a4")
        assert forced5["c6"] == a4 / 12
        assert forced5["c5"] == a3 / 8
        forced4 = dict(generate_system(weights["A4-40A2+144A0"]).forced)
        a2 = ParamScalar.var("a2")
        assert forced4["c5"] == a3
        assert forced4["c4"] == a2 * Rat(5, 3)


def test_criterion_09_matrix_conditions():
    with criterion(9, "matrix conditions hold with symbolic entries; 1x1 "
                      "embedding reproduces the scalar suite"):
        assert verify_entry(get_entry("matrix:hermite:1")).holds
        for cid in ("matrix:laguerre:1a", "matrix:laguerre:1b", "matrix:laguerre:2"):
            assert verify_entry(get_entry(cid)).holds, cid
        # independence of the two Hermite directions: off-family factors fail
        entry = get_entry("matrix:hermite:1")
        off = MatCondition(
            terms=[(2, [[0, 0], [0, 1]]), (0, [[0, 0], [0, -4]])],
            theta=MatDiffOp.scalar_times_identity(
                XRat.from_poly(XPoly.x()), 2, MATRIX_ACTION_SIDE))
        assert not verify_matrix_condition(entry.operator, off).holds
        # 1x1 embedding across the scalar catalog
        embedded = 0
        for cid in catalog_ids():
            scalar_entry = get_entry(cid)
            if scalar_entry.kind != "scalar" or not scalar_entry.expect_holds:
                continue
            if scalar_entry.condition.top_order > 5:
                continue
            mop = MatDiffOp({r: ((c,),) for r, c in scalar_entry.operator.coeffs.items()},
                            1, MATRIX_ACTION_SIDE)
            mtheta = MatDiffOp.scalar_times_identity(
                XRat.from_poly(scalar_entry.theta), 1, MATRIX_ACTION_SIDE)
            terms = [(j, [[w]]) for j, w in scalar_entry.condition.items()]
            assert verify_matrix_condition(
                mop, MatCondition(terms=terms, theta=mtheta)).holds, cid
            embedded += 1
        assert embedded >= 20


def test_criterion_10_heisenberg_series():
    with criterion(10, "conjugation series: harmonic closed form to order 9; "
                       "k=1 odd chain and even-chain report"):
        harmonic = DiffOp.schrodinger(XPoly.monomial(2))
        report = heisenberg_series(harmonic, XPoly.x(), 9)
        x_op = DiffOp.mul_by(XPoly.x())
        d_op = DiffOp.d()
        for m in range(10):
            # cosh(2t) x - sinh(2t) D: the t^m/m! coefficient is 2^m x for even
            # m and -2^m D for odd m
            want = (x_op if m % 2 == 0 else -d_op).scale(Rat(2) ** m)
            assert equals(report.powers[m], want), f"order {m}"

        op1, theta1 = exceptional_hermite(1)
        report1 = heisenberg_series(op1, theta1, 9)
        assert report1.rate == ParamScalar.const(16)
        for m in range(1, 10, 2):
            assert report1.closed_form_matches[m], f"odd order {m}"
        for m in range(2, 10, 2):
            assert report1.even_chain_matches[m], f"even chain order {m}"
        # the even part does not collapse to the order-0 power: the claimed
        # hyperbolic-cosine form already fails at order 2
        assert not report1.closed_form_matches[2]
        print("        k=1 even part: A_{2i} = 16^(i-1) A_2; the "
              "cosh-form claim fails at order 2 because A_2 != 16 A_0")


def test_criterion_11_property_suites():
    with criterion(11, "randomized exact property suites (>=100 instances each)"):
        from tests import test_properties as props
        props.test_mpoly_add_associative()
        props.test_mpoly_mul_distributes()
        props.test_fraction_equality_is_equivalence()
        props.test_normalize_fraction_preserves_value()
        props.test_relation_parameters_hold_under_operation_sequences()
        props.test_jacobi_identity()
        props.test_derivation_law()
        props.test_commutator_bilinear_and_antisymmetric()
        props.test_order_zero_operators_commute()
        props.test_monomial_oracle_agrees_with_equals()
        props.test_darboux_intertwining_on_random_seeds()
        props.test_nullspace_back_substitution_random()
