import math

import numpy as np
import pytest

from dirichlet_lab.errors import CapacityError, ParameterError
from dirichlet_lab.lattice import (
    LatticeBasis,
    ThickRegion,
    classify_thick,
    integer_det,
    random_unimodular,
    reduce_basis,
    shortest_supnorm_k2_batch,
    shortest_vector_supnorm,
    shortest_with_region,
    trichotomy,
)

from oracles import brute_force_shortest_supnorm


def test_rejects_non_unimodular():
    with pytest.raises(ParameterError):
        LatticeBasis(2.0 * np.eye(2))
    # determinant -1 is rejected too: orientation is part of the contract
    M = np.eye(2)
    M[0, 0] = -1.0
    with pytest.raises(ParameterError):
        LatticeBasis(M)


def test_rejects_tiny_and_huge_dimensions():
    with pytest.raises(ParameterError):
        LatticeBasis(np.eye(1))
    with pytest.raises(ParameterError):
        LatticeBasis(np.eye(7))


def test_serialization_roundtrip():
    basis = random_unimodular(seed=5, k=3, spread=2.0)
    text = basis.to_text()
    assert text.splitlines()[0] == "k=3"
    back = LatticeBasis.from_text(text)
    np.testing.assert_array_equal(back.columns, basis.columns)


def test_reduce_identity_is_identity():
    red = reduce_basis(LatticeBasis(np.eye(3)))
    np.testing.assert_allclose(red.reduced.columns, np.eye(3))
    assert integer_det(red.transform) == 1


def test_reduce_shear_example():
    basis = LatticeBasis(np.array([[1.0, 10.0], [0.0, 1.0]]))
    red = reduce_basis(basis)
    got = np.abs(red.reduced.columns)
    np.testing.assert_allclose(np.sort(got.sum(axis=0)), [1.0, 1.0])
    np.testing.assert_allclose(got.max(axis=0), [1.0, 1.0])


def test_reduce_preserves_lattice_seed7():
    basis = random_unimodular(seed=7, k=3, spread=3.0)
    red = reduce_basis(basis)
    # transform must be exactly integer, det +1, and reproduce the columns
    T = np.array([[float(x) for x in row] for row in red.transform])
    np.testing.assert_allclose(basis.columns @ T, red.reduced.columns,
                               rtol=0, atol=1e-9)
    assert integer_det(red.transform) == 1


def test_shortest_standard_basis():
    for k in (2, 3, 4):
        res = shortest_vector_supnorm(LatticeBasis(np.eye(k)))
        assert res.length == 1.0
        assert sorted(res.coeffs) == [0] * (k - 1) + [1]


def test_shortest_diagonal_example():
    t = 2.0
    basis = LatticeBasis(np.diag([math.exp(t), math.exp(-t)]))
    res = shortest_vector_supnorm(basis)
    assert res.coeffs == (0, 1)
    assert res.length == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_shortest_matches_brute_force():
    hits = 0
    for seed in range(120):
        k = 2 + seed % 2
        basis = random_unimodular(seed=seed, k=k, spread=1.0)
        if np.max(np.abs(basis.columns)) > 5:
            continue
        hits += 1
        res = shortest_vector_supnorm(basis)
        coeffs, length = brute_force_shortest_supnorm(basis.columns)
        assert res.length == pytest.approx(length, rel=1e-12)
        assert res.coeffs == coeffs
    assert hits > 60


def test_shortest_invariant_under_recoordination():
    # orientation-preserving column permutations and paired sign flips
    basis = random_unimodular(seed=42, k=3, spread=2.0)
    base_len = shortest_vector_supnorm(basis).length
    C = basis.columns
    cyclic = LatticeBasis(C[:, [1, 2, 0]])  # even permutation, det +1
    flipped = LatticeBasis(C * np.array([-1.0, -1.0, 1.0]))  # two sign flips
    assert shortest_vector_supnorm(cyclic).length == pytest.approx(base_len, rel=1e-12)
    assert shortest_vector_supnorm(flipped).length == pytest.approx(base_len, rel=1e-12)


def test_minkowski_bound_random_unimodular():
    for seed in range(200):
        k = 2 + seed % 2
        basis = random_unimodular(seed=seed, k=k, spread=2.0)
        assert shortest_vector_supnorm(basis).length <= 1.0 + 1e-9


def test_classify_thick_examples():
    assert classify_thick(LatticeBasis(np.eye(3)), 0.5) is ThickRegion.INSIDE
    assert classify_thick(LatticeBasis(np.eye(3)), 1.01) is ThickRegion.OUTSIDE
    skew = LatticeBasis(np.diag([math.exp(2.0), math.exp(-2.0)]))
    assert classify_thick(skew, 0.2) is ThickRegion.OUTSIDE


def test_classify_thick_boundary_band():
    basis = LatticeBasis(np.eye(2))
    sv, region = shortest_with_region(basis, eps=1.0, margin=1e-9)
    assert region is ThickRegion.BOUNDARY
    assert sv.length == 1.0
    assert classify_thick(basis, eps=1.0 - 1e-6) is ThickRegion.INSIDE


def test_trichotomy_edges():
    eps, margin = 0.5, 1e-9
    lo, hi = eps - margin, eps + margin
    below = np.nextafter(lo, -np.inf)
    expected = [ThickRegion.OUTSIDE, ThickRegion.BOUNDARY, ThickRegion.BOUNDARY,
                ThickRegion.INSIDE]
    lams = [below, lo, eps, hi]
    assert [trichotomy(lam, eps, margin) for lam in lams] == expected
    assert list(trichotomy(np.array(lams), eps, margin)) == expected
    assert trichotomy(np.nan, eps, margin) is ThickRegion.BOUNDARY
    with pytest.raises(ParameterError):
        trichotomy(0.3, eps, -1e-9)


def test_node_cap_raises_capacity_error():
    basis = random_unimodular(seed=3, k=4, spread=2.0)
    with pytest.raises(CapacityError):
        shortest_vector_supnorm(basis, node_cap=2)


def test_random_unimodular_deterministic_and_tight():
    a = random_unimodular(seed=0, k=2, spread=1.0)
    b = random_unimodular(seed=0, k=2, spread=1.0)
    np.testing.assert_array_equal(a.columns, b.columns)
    c = random_unimodular(seed=1, k=3, spread=2.0)
    assert abs(np.linalg.det(c.columns) - 1.0) <= 1e-12


def test_random_unimodular_all_distinct():
    # canonical fingerprint: reduced columns, sign/permutation normalized
    seen = {}
    for seed in range(1000):
        basis = random_unimodular(seed=seed, k=2, spread=1.0)
        red = reduce_basis(basis).reduced.columns
        cols = sorted(tuple(np.round(col * np.sign(col[np.argmax(np.abs(col))]), 9))
                      for col in red.T)
        key = tuple(cols)
        assert key not in seen, "seeds %d and %d gave the same lattice" % (seen.get(key, -1), seed)
        seen[key] = seed


def test_k2_batch_agrees_with_enumeration():
    bases = []
    expected = []
    for seed in range(120):
        basis = random_unimodular(seed=seed, k=2, spread=2.0)
        bases.append(basis.columns)
        expected.append(shortest_vector_supnorm(basis).length)
    got = shortest_supnorm_k2_batch(np.array(bases))
    np.testing.assert_allclose(got, expected, rtol=1e-12)
