import gc
import tracemalloc

import pytest

from bispec.exact import ExactError, ParamScalar, Rat
from bispec.diffop import XPoly, XRat
from bispec.adcond import WeightVector
from bispec.ansatz import build_V, fit_p, generate_system, verify_candidate
from bispec.families import ansatz_solution_catalog, ansatz_solution_count

W5 = WeightVector({5: 1, 3: -5, 1: 4})
W4 = WeightVector({4: 1, 2: -40, 0: 144})
W2 = WeightVector({2: 1, 0: -4})


def test_build_v_examples():
    assert build_V(XPoly.x(), XPoly.monomial(3, Rat(1, 3))) \
        == XRat.from_poly(XPoly.monomial(2))
    assert build_V(XPoly.monomial(2), XPoly.one()) \
        == XRat.from_ratio(XPoly.const(Rat(-1, 2)), XPoly.monomial(2))


def test_build_v_hermite_special_case():
    a2 = ParamScalar.var("a2")
    c = ParamScalar.var("c")
    theta = XPoly({2: a2})
    p = XPoly({4: a2 * Rat(2, 3), 1: 2 * a2 * c, 0: -4 * a2})
    want = (XRat.from_poly(XPoly.monomial(2))
            + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2)))
    assert build_V(theta, p) == want


def test_build_v_rejects_constant_theta():
    with pytest.raises(ExactError, match="vanishes"):
        build_V(XPoly.const(5), XPoly.one())


def test_forced_relations_quintic():
    system = generate_system(W5)
    forced = dict(system.forced)
    a3, a4 = ParamScalar.var("a3"), ParamScalar.var("a4")
    assert forced["c6"] == a4 / 12
    assert forced["c5"] == a3 / 8


def test_forced_relations_quartic():
    system = generate_system(W4)
    forced = dict(system.forced)
    a2, a3 = ParamScalar.var("a2"), ParamScalar.var("a3")
    assert forced["c5"] == a3
    assert forced["c4"] == a2 * Rat(5, 3)


def test_simplest_system_solution_set():
    # the full solution set of A_2 - 4 A_0 is theta = a1 x, V = x^2 + c1
    system = generate_system(W2)
    assert system.theta_names == ["a1"]
    a1 = ParamScalar.var("a1")
    # V = x^2 + const comes from P = a1 x^3/3 + c1 a1 x + c0: substitute and check
    mapping = {"a1": a1, "c3": a1 / 3, "c2": ParamScalar.const(0)}
    # remaining unknowns c1, c0 stay free
    values = system.substitute(mapping)
    assert all(v.is_zero() for v in values)
    report = verify_candidate(W2, XPoly({1: a1}),
                              XPoly({2: ParamScalar.const(1), 0: ParamScalar.var("c1")}))
    assert report.holds


def _substitution_mapping(system, theta, v, deg_p):
    mapping = {}
    for name in system.theta_names:
        mapping[name] = theta.coeff(int(name[1:]))
    solutions, _, _ = fit_p(theta, v, deg_p)
    assert solutions, "potential is not of the form (P/theta')'"
    p = solutions[0]
    for name in system.p_names:
        mapping[name] = p.coeff(int(name[1:]))
    return mapping


def test_generated_system_leaves_no_memory_behind():
    # exact caches nothing per monomial key: once the quintic system and its
    # text are dropped, almost nothing allocated while building them is held
    tracemalloc.start()
    try:
        system = generate_system(W5)
        texts = [str(eq) for eq in system.equations]
        assert len(texts) == 49
        del system, texts
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 0.5 * 2 ** 20


def test_quintic_solutions_satisfy_generated_system():
    system = generate_system(W5)
    for index in range(1, ansatz_solution_count("A5-5A3+4A1") + 1):
        theta, v = ansatz_solution_catalog("A5-5A3+4A1", index)
        mapping = _substitution_mapping(system, theta, v, 6)
        assert system.residual_norm(mapping) == 0, f"solution {index}"


def test_quartic_solutions_satisfy_generated_system():
    # the quartic condition involves A_0, so additive constants in theta are
    # meaningful: generate with the constant included
    system = generate_system(W4, include_constant=True)
    for index in range(1, ansatz_solution_count("A4-40A2+144A0") + 1):
        theta, v = ansatz_solution_catalog("A4-40A2+144A0", index)
        mapping = _substitution_mapping(system, theta, v, 5)
        assert system.residual_norm(mapping) == 0, f"solution {index}"


@pytest.mark.parametrize("equation,weights", [
    ("A2-4A0", W2),
    ("A3-16A1", WeightVector({3: 1, 1: -16})),
    ("A5-5A3+4A1", W5),
    ("A4-40A2+144A0", W4),
])
def test_all_catalog_solutions_verify(equation, weights):
    for index in range(1, ansatz_solution_count(equation) + 1):
        theta, v = ansatz_solution_catalog(equation, index)
        assert verify_candidate(weights, theta, v).holds, f"{equation}:{index}"


def test_verify_candidate_negative():
    report = verify_candidate(W2, XPoly.x(), XRat.from_poly(XPoly.monomial(3)))
    assert not report.holds
    # residual is 2*(3x^2) - 4x
    want = XPoly({2: ParamScalar.const(6), 1: ParamScalar.const(-4)})
    assert report.residual.coeff(0) == XRat.from_poly(want)


def test_most_interesting_specializes_to_one_step_potential():
    # at t=0 and u=k the quartic-theta potential matches the one-step Darboux
    # potential up to an additive constant
    from bispec.darboux import potentials_match_up_to_constant
    from bispec.families import laguerre_catalog
    theta, v = ansatz_solution_catalog("A5-5A3+4A1", 7)
    k = ParamScalar.var("k")
    special = v.substitute({"t": 0, "u": k})
    displayed = laguerre_catalog(1).operator.potential()
    assert potentials_match_up_to_constant(special, displayed)
