import math

import numpy as np
import pytest

from dirichlet_lab import exterior
from dirichlet_lab.errors import ParameterError
from dirichlet_lab.exterior import (
    CoefficientCertificate,
    ExteriorVector,
    affine_pairing,
    big_coefficient_certificate,
    flow_action,
    index_sets,
    shear_action,
    weight_exponent,
)
from dirichlet_lab.flows import WeightVector, flow_matrix, flowed_bases

from oracles import compensated_sum, exterior_matrix, wedge_coordinates


def one_form_weights(parts):
    """Weight vector (sum(parts), *parts) for the m=1 convention."""
    parts = tuple(float(p) for p in parts)
    return WeightVector(1, len(parts), (sum(parts),) + parts)


def shear_matrix(y):
    y = np.asarray(y, dtype=float)
    k = y.size + 1
    M = np.eye(k)
    M[0, 1:] = y
    return M


def random_vector(rng, k, grade):
    count = len(index_sets(k, grade))
    return ExteriorVector(k, grade, rng.uniform(-3, 3, size=count))


# -- weight exponents -------------------------------------------------------


def test_weight_exponent_worked_examples():
    t = one_form_weights((1.0, 2.0))  # (3, 1, 2)
    assert weight_exponent(t, (0,)) == pytest.approx(3.0)
    assert weight_exponent(t, (1, 2)) == pytest.approx(-3.0)
    assert weight_exponent(t, (0, 1)) == pytest.approx(2.0)


def test_weight_exponent_nonnegative_when_zero_included():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        t = one_form_weights(rng.uniform(0.1, 4.0, size=n))
        for grade in range(1, n + 1):
            for I in index_sets(n + 1, grade):
                e = weight_exponent(t, I)
                if 0 in I:
                    assert e >= -1e-12
                else:
                    assert e < 0


def test_weight_exponent_rejects_bad_index_sets():
    t = one_form_weights((1.0, 2.0))
    with pytest.raises(ParameterError):
        weight_exponent(t, (1, 1))
    with pytest.raises(ParameterError):
        weight_exponent(t, (2, 1))
    with pytest.raises(ParameterError):
        weight_exponent(t, (0, 5))
    with pytest.raises(ParameterError):
        weight_exponent(t, ())


def test_weight_exponent_does_not_depend_on_the_builtin_sum(monkeypatch):
    # t = (1 + 2^-52, 1, 2^-53, 2^-53): added left to right, each 2^-53 is
    # lost beside 1 (a tie, rounded to even); a compensated sum keeps both
    t = WeightVector(1, 3, (1.0 + 2.0 ** -52, 1.0, 2.0 ** -53, 2.0 ** -53))
    plain = [weight_exponent(t, (1, 2, 3)), weight_exponent(t, (0, 1, 2, 3))]
    assert plain == [-1.0, 2.0 ** -52]
    monkeypatch.setattr(exterior, "sum", compensated_sum, raising=False)
    assert exterior.sum([1.0, 2.0 ** -53, 2.0 ** -53]) == 1.0 + 2.0 ** -52
    assert [weight_exponent(t, (1, 2, 3)), weight_exponent(t, (0, 1, 2, 3))] == plain


def test_weight_exponent_needs_one_form_convention():
    t = WeightVector(2, 2, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        weight_exponent(t, (0,))


# -- vector container -------------------------------------------------------


def test_vector_shape_and_grade_validation():
    with pytest.raises(ParameterError):
        ExteriorVector(3, 0, np.array([1.0]))
    with pytest.raises(ParameterError):
        ExteriorVector(3, 3, np.ones(1))  # grade k is the determinant line
    with pytest.raises(ParameterError):
        ExteriorVector(3, 2, np.ones(4))  # C(3,2) = 3
    with pytest.raises(ParameterError):
        ExteriorVector(3, 1, np.array([1.0, np.inf, 0.0]))


def test_unit_and_coefficient_accessors():
    w = ExteriorVector.unit(4, (1, 3))
    assert w.grade == 2
    assert w.coefficient((1, 3)) == 1.0
    assert w.coefficient((0, 1)) == 0.0
    with pytest.raises(ParameterError):
        w.coefficient((3, 1))


def test_from_map_rejects_wrong_grade_entries():
    with pytest.raises(ParameterError):
        ExteriorVector.from_map(3, 2, {(1,): 1.0})


# -- flow action ------------------------------------------------------------


def test_flow_action_matches_exterior_matrix_oracle():
    rng = np.random.default_rng(11)
    for k in (3, 4):
        n = k - 1
        for grade in range(1, k):
            for _ in range(12):
                t = one_form_weights(rng.uniform(0.2, 3.0, size=n))
                g = flow_matrix(t)
                w = random_vector(rng, k, grade)
                _, L = exterior_matrix(g, grade)
                want = L @ w.coeffs
                got = flow_action(t, w).coeffs
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_flow_action_overflow_guard():
    # t_0 = 350 is refused where the weight is built, so neither the flow
    # action nor the certificate (finite values here) ever sees it
    with pytest.raises(ParameterError, match="weight entry 350 exceeds overflow guard 300"):
        one_form_weights((200.0, 150.0))


# -- shear action -----------------------------------------------------------


def test_shear_fixes_first_axis():
    w = ExteriorVector.unit(3, (0,))
    out = shear_action((0.7, -2.3), w)
    np.testing.assert_allclose(out.coeffs, w.coeffs)


def test_shear_on_second_axis_picks_up_y():
    w = ExteriorVector.unit(3, (1,))
    out = shear_action((0.7, -2.3), w)
    assert out.coefficient((1,)) == pytest.approx(1.0)
    assert out.coefficient((0,)) == pytest.approx(0.7)
    assert out.coefficient((2,)) == 0.0


def test_shear_matches_exterior_matrix_oracle():
    rng = np.random.default_rng(13)
    for k in (3, 4, 5):
        for grade in range(1, k):
            for _ in range(8):
                y = rng.uniform(-2, 2, size=k - 1)
                w = random_vector(rng, k, grade)
                _, L = exterior_matrix(shear_matrix(y), grade)
                want = L @ w.coeffs
                got = shear_action(y, w).coeffs
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_shear_matches_wedge_of_sheared_vectors():
    # decomposable case: tau(v1) ^ tau(v2) computed two ways
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(3, 5))
        j = int(rng.integers(2, k))
        M = rng.integers(-4, 5, size=(k, j)).astype(float)
        y = rng.uniform(-2, 2, size=k - 1)
        w = ExteriorVector.from_map(k, j, wedge_coordinates(M))
        direct = wedge_coordinates(shear_matrix(y) @ M)
        got = shear_action(y, w)
        for I, val in direct.items():
            assert got.coefficient(I) == pytest.approx(val, rel=1e-12, abs=1e-12)


def test_flow_after_shear_matches_direct_exterior_power():
    rng = np.random.default_rng(19)
    cases = 0
    while cases < 200:
        k = int(rng.integers(3, 5))
        grade = int(rng.integers(1, k))
        n = k - 1
        t = one_form_weights(rng.uniform(0.2, 2.5, size=n))
        y = rng.uniform(-3, 3, size=n)
        w = random_vector(rng, k, grade)
        direct_mat = flow_matrix(t) @ shear_matrix(y)
        _, L = exterior_matrix(direct_mat, grade)
        want = L @ w.coeffs
        got = flow_action(t, shear_action(y, w)).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        cases += 1


def test_shear_is_forms_basis_for_one_form():
    # the shear is exactly the basis map of a single linear form
    y = np.array([0.3, -1.2])
    t = one_form_weights([0.7, 1.1])
    np.testing.assert_array_equal(flow_matrix(t) @ shear_matrix(y),
                                  flowed_bases(y[None, None], t)[0])


def test_pairing_is_affine_midpoint_identity():
    rng = np.random.default_rng(23)
    for _ in range(40):
        k = int(rng.integers(3, 5))
        grade = int(rng.integers(1, k))
        t = one_form_weights(rng.uniform(0.2, 2.0, size=k - 1))
        w = random_vector(rng, k, grade)
        y1 = rng.uniform(-2, 2, size=k - 1)
        y2 = rng.uniform(-2, 2, size=k - 1)
        I = index_sets(k, grade)[int(rng.integers(len(index_sets(k, grade))))]
        mid = affine_pairing(w, t, I, (y1 + y2) / 2.0)
        avg = 0.5 * (affine_pairing(w, t, I, y1) + affine_pairing(w, t, I, y2))
        assert mid == pytest.approx(avg, rel=1e-12, abs=1e-12)


# -- big-coefficient certificate --------------------------------------------


def test_certificate_worked_example():
    w = ExteriorVector.unit(3, (1, 2))
    t = one_form_weights((1.0, 2.0))  # (3, 1, 2)
    cert = big_coefficient_certificate(w, t)
    assert isinstance(cert, CoefficientCertificate)
    assert cert.index_set == (0, 1)
    assert cert.coeff_index == 2
    assert abs(cert.value) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert cert.lower_bound == pytest.approx(math.exp(1.5), rel=1e-12)
    assert abs(cert.value) >= cert.lower_bound * (1.0 - 1e-9)


def test_certificate_requires_coordinate_avoiding_zero():
    w = ExteriorVector.unit(3, (0, 1))
    t = one_form_weights((1.0, 2.0))
    with pytest.raises(ParameterError):
        big_coefficient_certificate(w, t)
    zero = ExteriorVector(3, 2, np.zeros(3))
    with pytest.raises(ParameterError):
        big_coefficient_certificate(zero, t)


def test_certificate_bound_and_claim_on_random_integer_vectors():
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        k = int(rng.integers(3, 5))
        grade = int(rng.integers(1, k))
        count = len(index_sets(k, grade))
        coeffs = rng.integers(-6, 7, size=count).astype(float)
        w = ExteriorVector(k, grade, coeffs)
        t = one_form_weights(rng.uniform(0.2, 2.5, size=k - 1))
        try:
            cert = big_coefficient_certificate(w, t)
        except ParameterError:
            continue
        assert abs(cert.value) >= cert.lower_bound * (1.0 - 1e-9)
        # the certified value is the actual affine coefficient of the pairing
        e_i = np.zeros(k - 1)
        e_i[cert.coeff_index - 1] = 1.0
        slope = (affine_pairing(w, t, cert.index_set, e_i)
                 - affine_pairing(w, t, cert.index_set, np.zeros(k - 1)))
        assert slope == pytest.approx(cert.value, rel=1e-10, abs=1e-10)
        done += 1

