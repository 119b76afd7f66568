import itertools
import math

import numpy as np
import pytest

from dirichlet_lab import lattice
from dirichlet_lab.errors import CapacityError, ParameterError
from dirichlet_lab.flows import WeightVector, flowed_bases, flowed_basis, random_forms
from dirichlet_lab.lattice import (
    LatticeBasis,
    ThickRegion,
    random_unimodular,
    reduce_basis,
    shortest_supnorm_batch,
    shortest_supnorm_k2_batch,
    shortest_vector_supnorm,
    shortest_with_region,
    trichotomy,
)

from oracles import brute_force_shortest_supnorm, compensated_sum, exact_supnorm, integer_det


def _reduced(basis):
    """reduce_basis's transform T, checked to be integer with det +-1, and the
    reduced columns basis.columns @ T."""
    T = reduce_basis(basis)
    assert all(isinstance(x, int) for x in T.flat)
    assert abs(integer_det(T)) == 1
    return T, basis.columns @ T.astype(float)


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


def test_reduce_identity_is_identity():
    T, reduced = _reduced(LatticeBasis(np.eye(3)))
    assert T.tolist() == np.eye(3, dtype=int).tolist()
    np.testing.assert_array_equal(reduced, np.eye(3))


def test_reduce_shear_example():
    basis = LatticeBasis(np.array([[1.0, 10.0], [0.0, 1.0]]))
    _, reduced = _reduced(basis)
    got = np.abs(reduced)
    np.testing.assert_allclose(np.sort(got.sum(axis=0)), [1.0, 1.0])
    np.testing.assert_allclose(got.max(axis=0), [1.0, 1.0])


def test_reduce_preserves_lattice_seed7():
    basis = random_unimodular(seed=7, k=3, spread=3.0)
    # the transform is exactly integer with det +-1, and it reduces: the
    # reduced columns are no longer than the input's
    T, reduced = _reduced(basis)
    assert np.abs(reduced).max() < np.abs(basis.columns).max()
    assert np.abs(T).max() > 1


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


@pytest.mark.parametrize("k,bound", [(4, 3), (5, 2), (6, 2)])
def test_box_scan_matches_brute_force_in_higher_dimensions(k, bound):
    # the brute-force scan runs over the reduced columns, where the
    # minimizer's coefficients are small, and maps back through the transform
    for seed in range(12):
        basis = random_unimodular(seed=seed, k=k, spread=1.0)
        T, reduced = _reduced(basis)
        coeffs, length = brute_force_shortest_supnorm(reduced, coeff_bound=bound)
        orig = T.dot(np.array(coeffs, dtype=object))
        first = next(x for x in orig if x != 0)
        sv = shortest_vector_supnorm(basis)
        assert sv.coeffs == tuple(int(x) if first > 0 else -int(x) for x in orig)
        assert sv.length == pytest.approx(length, rel=1e-12)


def test_ties_go_to_the_least_canonical_coefficients_in_the_original_basis():
    # Z^k in the sup norm has every nonzero vector of {-1, 0, 1}^k as a
    # minimizer; under a shear the winner's original coefficients differ
    # from its reduced ones
    for k in (2, 3, 4):
        shear = np.eye(k) + np.eye(k, k, 1) - 2.0 * np.eye(k, k, 2)
        for columns in (np.eye(k), shear):
            sv = shortest_vector_supnorm(LatticeBasis(columns))
            assert sv.coeffs == brute_force_shortest_supnorm(columns, coeff_bound=4)[0]
            assert sv.length == 1.0


def _root_lattices():
    """A_2..A_6 and D_3..D_6 from their Gram matrices, scaled to covolume 1,
    as given and turned by a random rotation."""
    rotations = np.random.default_rng(5)
    for k in range(2, 7):
        path = 2.0 * np.eye(k) - np.eye(k, k, 1) - np.eye(k, k, -1)
        fork = path.copy()
        fork[k - 1, k - 2] = fork[k - 2, k - 1] = 0.0
        fork[k - 1, k - 3] = fork[k - 3, k - 1] = -1.0
        for gram in (path, fork) if k > 2 else (path,):
            b = np.linalg.cholesky(gram).T
            b /= np.linalg.det(b) ** (1.0 / k)
            q, _ = np.linalg.qr(rotations.standard_normal((k, k)))
            q[:, 0] *= np.sign(np.linalg.det(q))
            yield b
            yield q @ b


def test_box_scan_finds_the_minimum_of_root_lattices():
    # root lattices have many minimal vectors of one length: the scan must
    # reach the same minimum as a full scan of the reduced coefficients
    for basis in map(LatticeBasis, _root_lattices()):
        _, length = brute_force_shortest_supnorm(_reduced(basis)[1], coeff_bound=2)
        sv = shortest_vector_supnorm(basis)
        assert sv.length == pytest.approx(length, rel=1e-12)
        assert np.max(np.abs(basis.columns @ np.array(sv.coeffs, dtype=float))) == sv.length


def test_half_box_is_the_box_up_to_sign():
    # each box fits one slice; test_box_slices_do_not_change_the_minimizer splits them
    for bounds in ((1, 1), (2, 0, 1), (1,) * 6, (3, 1, 2, 1)):
        box = lattice._half_box(bounds, 0)
        grid = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij"),
                        axis=-1).reshape(-1, len(bounds))
        # lexicographic order, each nonzero vector or its negative once
        assert [tuple(c) for c in box] == sorted(tuple(c) for c in grid if tuple(c) > (0,) * len(c))


def test_box_slices_do_not_change_the_minimizer(monkeypatch):
    bases = [random_unimodular(seed=seed, k=k, spread=2.0) for k in (5, 6) for seed in range(6)]
    bases += [LatticeBasis(b) for b in _root_lattices()]
    whole = [shortest_vector_supnorm(b).coeffs for b in bases]
    monkeypatch.setattr(lattice, "_BOX_SLICE", 7)
    lattice._half_box.cache_clear()
    try:
        assert [shortest_vector_supnorm(b).coeffs for b in bases] == whole
    finally:
        monkeypatch.undo()
        lattice._half_box.cache_clear()


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


def test_shortest_with_region_examples():
    assert shortest_with_region(LatticeBasis(np.eye(3)), 0.5)[1] is ThickRegion.INSIDE
    assert shortest_with_region(LatticeBasis(np.eye(3)), 1.01)[1] is ThickRegion.OUTSIDE
    skew = LatticeBasis(np.diag([math.exp(2.0), math.exp(-2.0)]))
    assert shortest_with_region(skew, 0.2)[1] is ThickRegion.OUTSIDE


def test_shortest_with_region_boundary_band():
    basis = LatticeBasis(np.eye(2))
    sv, region = shortest_with_region(basis, eps=1.0, margin=1e-9)
    assert region is ThickRegion.BOUNDARY
    assert sv.length == 1.0
    assert shortest_with_region(basis, eps=1.0 - 1e-6)[1] is ThickRegion.INSIDE


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


def test_node_cap_raises_capacity_error(monkeypatch):
    basis = random_unimodular(seed=3, k=4, spread=2.0)
    monkeypatch.setattr(lattice, "NODE_CAP", 2)
    with pytest.raises(CapacityError):
        shortest_vector_supnorm(basis)


def test_random_unimodular_deterministic_and_tight():
    a = random_unimodular(seed=0, k=2, spread=1.0)
    b = random_unimodular(seed=0, k=2, spread=1.0)
    np.testing.assert_array_equal(a.columns, b.columns)
    c = random_unimodular(seed=1, k=3, spread=2.0)
    assert abs(np.linalg.det(c.columns) - 1.0) <= 1e-12


def test_random_unimodular_draws_every_seed():
    # shears that grow the entries past the 1e-12 determinant check are
    # drawn again from the same stream (seed 68 at k = 5, spread 2 needs it)
    for seed in range(200):
        for k in range(2, 7):
            for spread in (1.0, 2.0, 3.0):
                basis = random_unimodular(seed=seed, k=k, spread=spread)
                assert abs(np.linalg.det(basis.columns) - 1.0) <= 1e-12


def _counterexample_bases(systems=4):
    u = math.log(1.5)
    for index in range(systems):
        Y = random_forms(index, 2, 1, scale=3.0)
        for s in range(3, 13):
            yield flowed_basis(Y, WeightVector(2, 1, (u, s, s + u)))


def _reduction_cases():
    for k in range(2, 7):
        for seed in range(8):
            yield random_unimodular(seed=seed, k=k, spread=3.0)
    yield from _counterexample_bases()


def _assert_lll_reduced_by(A, T):
    """T is integer with det +-1, and the columns A . T are LLL-reduced."""
    assert all(float(x) == int(x) for x in T.flat)
    assert abs(integer_det(T)) == 1
    R = lattice._combine(A[:, :, None], T.astype(float))
    # Gram-Schmidt from a QR factorization: b*_i has length |r_ii|,
    # mu_ij = r_ji / r_jj
    r = np.linalg.qr(R, mode="r")
    mu = (r / np.diag(r)[:, None]).T
    norms2 = np.diag(r) ** 2
    for i in range(1, A.shape[0]):
        assert np.all(np.abs(mu[i, :i]) <= 0.5 + 1e-9)
        assert (norms2[i] >= (lattice._LLL_DELTA - mu[i, i - 1] ** 2)
                * norms2[i - 1] * (1 - 1e-9))


def _random_unimodular_transform(gen, k):
    """An integer k x k matrix with det 1: a product of 3k random shears."""
    M = np.eye(k, dtype=int).astype(object)
    for _ in range(3 * k):
        i, j = gen.choice(k, size=2, replace=False)
        M[:, j] += int(gen.integers(-3, 4)) * M[:, i]
    return M


def test_reduction_is_lll_reduced_by_an_exact_unimodular_transform():
    for basis in _reduction_cases():
        # both reductions return only their transform T, integer with
        # det +-1, and the caller rebuilds the reduced columns input . T
        A = basis.columns
        for T in (reduce_basis(basis), lattice._lll_batch(A[:, :, None].copy())[:, :, 0]):
            _assert_lll_reduced_by(A, T)
    # warm starts: the counterexample's lattices in s order, each from the
    # previous transform, and random bases from a random unimodular start
    T = None
    for basis in _counterexample_bases():
        T = reduce_basis(basis, start=T)
        _assert_lll_reduced_by(basis.columns, T)
    gen = np.random.default_rng(5)
    for k in range(2, 7):
        for seed in range(8):
            basis = random_unimodular(seed=seed, k=k, spread=3.0)
            start = _random_unimodular_transform(gen, k)
            _assert_lll_reduced_by(basis.columns, reduce_basis(basis, start=start))
            sv = shortest_vector_supnorm(basis, start)
            assert sv.coeffs == shortest_vector_supnorm(basis).coeffs
            _assert_lll_reduced_by(basis.columns, sv.transform)
    with pytest.raises(ParameterError, match="start"):
        reduce_basis(LatticeBasis(np.eye(3)), start=np.eye(2, dtype=int))


def test_scalar_reduction_does_not_depend_on_the_builtin_sum(monkeypatch):
    # column 1 . column 0 = x + (4.5 - 2^(e - 60)) - x with x = 2^e: added
    # left to right, the 2^(e - 60) is lost beside x, so mu_10 = 1.5 and
    # rounds to 2; a compensated sum gives mu_10 < 1.5, which rounds to 1,
    # and (at e = 30, 40) another T
    cases = []
    for e in (30, 40):
        x, y = 2.0 ** e, 4.5 - 2.0 ** (e - 60)
        cases.append(np.array([[1.0, x, 0.0], [1.0, y, 0.0], [1.0, -x, 1.0 / (y - x)]]))
    plain = [(lattice._gram_schmidt(M.T.tolist()), reduce_basis(LatticeBasis(M)))
             for M in cases]
    assert all(mu[1] == [1.5] for (mu, _), _ in plain)
    monkeypatch.setattr(lattice, "sum", compensated_sum, raising=False)
    assert lattice.sum([1e16, 1.0, -1e16]) == 1.0
    for M, (profile, T) in zip(cases, plain):
        assert lattice._gram_schmidt(M.T.tolist()) == profile
        assert np.array_equal(reduce_basis(LatticeBasis(M)), T)


def test_counterexample_lattices_match_brute_force():
    # the shortest vector of a flowed basis has coefficients up to e^(s+u);
    # the brute-force scan runs over the reduced basis, whose coefficients
    # are small, and maps its minimizer back through the exact transform
    for basis in _counterexample_bases():
        T, reduced = _reduced(basis)
        coeffs, length = brute_force_shortest_supnorm(reduced, coeff_bound=6)
        sv = shortest_vector_supnorm(basis)
        orig = T.dot(np.array(coeffs, dtype=object))
        first = next(x for x in orig if x != 0)
        assert sv.coeffs == tuple(int(x) if first > 0 else -int(x) for x in orig)
        # both lengths are sums over the input columns, in different orders
        assert sv.length == pytest.approx(length, rel=1e-12)


def test_random_unimodular_all_distinct():
    # canonical fingerprint: reduced columns, sign/permutation normalized
    seen = {}
    for seed in range(1000):
        basis = random_unimodular(seed=seed, k=2, spread=1.0)
        cols = sorted(tuple(np.round(col * np.sign(col[np.argmax(np.abs(col))]), 9))
                      for col in _reduced(basis)[1].T)
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


@pytest.mark.parametrize("k", [3, 4, 5])
def test_batch_agrees_with_enumeration(k):
    bases = [random_unimodular(seed=seed, k=k, spread=2.0) for seed in range(40)]
    got = shortest_supnorm_batch(np.array([b.columns for b in bases]))
    expected = [shortest_vector_supnorm(b).length for b in bases]
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_batch_reduction_ends_when_a_sweep_swaps_nothing():
    # g_t tau(y) at t = (11.76, 11.76), from an equidist run: the recomputed
    # mu of its reduced pair alternates between +0.5000001 and -0.5000023,
    # so rint size-reduces by +-1 in every sweep
    B = np.array([[128027.45345226408, 126482.1238378278], [0.0, 7.810824733562767e-06]])
    tol = 64.0 * 2.0 ** -52 * math.exp(2 * 11.76)
    exact = shortest_vector_supnorm(LatticeBasis(B)).length
    assert abs(shortest_supnorm_batch(B[None])[0] - exact) <= tol


@pytest.mark.parametrize("t", [(10.0, 5.0, 5.0), (18.0, 6.0, 6.0, 6.0)])
def test_a_lattice_gets_the_same_bits_alone_and_in_a_stack(t):
    # one-form rows as decay and escape build them; the kernel adds every sum
    # in a fixed order, so a stack of one gives the bits of a larger stack
    rows = np.random.default_rng(1).random((120, len(t) - 1))
    S = flowed_bases(rows[:, None], WeightVector(1, len(t) - 1, t))
    stack = shortest_supnorm_batch(S)
    alone = np.array([shortest_supnorm_batch(S[i:i + 1])[0] for i in range(len(S))])
    assert np.array_equal(stack, alone)


def test_chunk_boundaries_do_not_change_the_values():
    y = np.random.default_rng(2).random(lattice._CHUNK + 3)
    S = flowed_bases(y[:, None, None], WeightVector(1, 1, (9.0, 9.0)))
    whole = shortest_supnorm_batch(S)
    for a, b in ((1, lattice._CHUNK + 1), (5000, lattice._CHUNK + 2)):
        pieces = [shortest_supnorm_batch(S[:a]), shortest_supnorm_batch(S[a:b]),
                  shortest_supnorm_batch(S[b:])]
        assert np.array_equal(whole, np.concatenate(pieces))


@pytest.mark.parametrize("t", [(9.0, 9.0), (10.0, 5.0, 5.0)])
def test_batch_reads_a_read_only_stack(t):
    rows = np.random.default_rng(4).random((lattice._CHUNK + 5, len(t) - 1))
    S = flowed_bases(rows[:, None], WeightVector(1, len(t) - 1, t))
    S.setflags(write=False)
    before = S.copy()
    got = shortest_supnorm_batch(S)
    assert np.array_equal(got, shortest_supnorm_batch(S.copy()))
    assert np.array_equal(S, before)


# one-form weight lists (m = 1) up to flow skew 24: along a ray, the same
# ray reversed, and off it
_WARM_T_LISTS = {
    "ray-k3": ((6, 3, 3), (8, 4, 4), (10, 5, 5), (12, 6, 6), (16, 8, 8)),
    "reversed-k3": ((16, 8, 8), (12, 6, 6), (8, 4, 4)),
    "off-ray-k3": ((10, 5, 5), (10, 2, 8), (10, 8, 2), (14, 10, 4), (12, 2, 10)),
    "ray-k4": ((6, 2, 2, 2), (9, 3, 3, 3), (12, 4, 4, 4), (18, 6, 6, 6)),
    "reversed-k4": ((18, 6, 6, 6), (12, 4, 4, 4), (6, 2, 2, 2)),
    "off-ray-k4": ((12, 4, 4, 4), (12, 6, 3, 3), (12, 2, 2, 8), (16, 8, 4, 4)),
}


def _warm_and_cold(rows, t_list, cap):
    """Per t of the list: (values and transforms of the batch kernel started
    from the previous t's transforms, the cold values)."""
    n, T = rows.shape[1], None
    for t in t_list:
        S = flowed_bases(rows[:, None], WeightVector(1, n, tuple(map(float, t))))
        lam, T = lattice._shortest_batch(S, cap, T)
        yield lam, T, shortest_supnorm_batch(S, cap)


@pytest.mark.parametrize("t_list", _WARM_T_LISTS.values(), ids=list(_WARM_T_LISTS))
def test_warm_started_batch_gives_the_cold_values(t_list):
    # a row at or below cap has the cold value bit for bit; above cap, it
    # is above cap both ways
    rows = np.random.default_rng(len(t_list[0])).uniform(-1.0, 1.0, (1500, len(t_list[0]) - 1))
    for lam, T, cold in _warm_and_cold(rows, t_list, 0.4):
        below = cold <= 0.4
        assert np.array_equal(lam <= 0.4, below)
        assert np.array_equal(lam[below], cold[below])
        assert T.shape == (len(t_list[0]),) * 2 + (len(rows),)


def test_warm_started_batch_on_random_unimodular_stacks():
    # random bases from random unimodular starts, in the kernel and in
    # _lll_batch alone: the cold values, and LLL-reduced T with det +-1
    gen = np.random.default_rng(9)
    for k in range(2, 7):
        bases = np.array([random_unimodular(seed=seed, k=k, spread=3.0).columns
                          for seed in range(24)])
        start = np.stack([_random_unimodular_transform(gen, k) for _ in bases], axis=2)
        lam, T = lattice._shortest_batch(bases, math.inf, start.astype(float))
        assert np.array_equal(lam, shortest_supnorm_batch(bases))
        alone = lattice._lll_batch(bases.transpose(1, 2, 0).copy(), start)
        assert np.array_equal(alone, T)
        for i, A in enumerate(bases):
            _assert_lll_reduced_by(A, T[:, :, i])
    # the counterexample's lattices in s order, each from the previous T
    T = None
    for basis in _counterexample_bases():
        T = lattice._lll_batch(basis.columns[:, :, None].copy(), T)
        _assert_lll_reduced_by(basis.columns, T[:, :, 0])
    with pytest.raises(ParameterError, match="start"):
        lattice._lll_batch(np.eye(3)[:, :, None].copy(), np.eye(3)[:, :, None, None])


def test_warm_start_follows_the_rows_across_chunks(monkeypatch):
    # each chunk takes its own slice of the starts: the transforms are those
    # of an unchunked call, row by row
    rows = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 2))
    t_list = _WARM_T_LISTS["ray-k3"][:3]
    whole = list(_warm_and_cold(rows, t_list, 0.4))
    monkeypatch.setattr(lattice, "_CHUNK", 64)
    for (lam, T, cold), (lam64, T64, cold64) in zip(whole, _warm_and_cold(rows, t_list, 0.4)):
        assert np.array_equal(lam64, lam) and np.array_equal(cold64, cold)
        assert np.array_equal(T64, T)


def _a6():
    """The root lattice A_6 (Gram matrix 2 on the diagonal, -1 beside it),
    scaled to covolume 1: LLL-reduced as given, yet ||B^-1||_inf * L = 2.12
    >= 2, so the batch kernel holds no certificate for it."""
    k = 6
    gram = 2.0 * np.eye(k) - np.eye(k, k, 1) - np.eye(k, k, -1)
    a6 = np.linalg.cholesky(gram).T
    return a6 / np.linalg.det(a6) ** (1.0 / k)


def _recording_fallbacks(monkeypatch):
    """Patch lattice._enumerate_shortest to record the input columns and the
    transform of every call; returns the list of (A, U)."""
    calls, scan = [], lattice._enumerate_shortest

    def recording(A, U):
        calls.append((A.copy(), U.copy()))
        return scan(A, U)

    monkeypatch.setattr(lattice, "_enumerate_shortest", recording)
    return calls


def test_batch_without_a_certificate_falls_back_to_enumeration(monkeypatch):
    a6 = _a6()
    bases = [LatticeBasis(a6)] + [random_unimodular(seed=seed, k=6) for seed in range(5)]
    expected = [shortest_vector_supnorm(b).length for b in bases]
    fallbacks = _recording_fallbacks(monkeypatch)
    got = shortest_supnorm_batch(np.array([b.columns for b in bases]))
    # the fallback scans the input columns with the batch reduction's T
    assert len(fallbacks) == 1 and np.array_equal(fallbacks[0][0], a6)
    assert np.array_equal(fallbacks[0][1],
                          lattice._lll_batch(a6[:, :, None].copy())[:, :, 0])
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    # a cap below L certifies with the smaller bound min(L, cap)
    fallbacks.clear()
    assert shortest_supnorm_batch(a6[None], cap=0.5)[0] > 0.5
    assert fallbacks == []


def _stack_with_fallbacks():
    """Random bases of spread 3 at k = 5 and 6, one stack per k, and A_6:
    about one basis in twenty-five has no certificate (none at k = 3, 4)."""
    for k in (5, 6):
        bases = [random_unimodular(seed=seed, k=k, spread=3.0).columns for seed in range(200)]
        yield np.array(bases + [_a6()] * (k == 6))


def test_batch_finishes_its_own_fallback_rows(monkeypatch):
    # the batch kernel never reduces a basis a second time, nor validates it,
    # and a row without a certificate keeps the bits that a second, scalar
    # reduction of that row gave: the winner's length over the input columns
    def refuse(*args):
        raise AssertionError("the batch kernel left its own reduction")

    stacks = list(_stack_with_fallbacks())
    fallbacks = _recording_fallbacks(monkeypatch)
    with monkeypatch.context() as patch:
        for name in ("reduce_basis", "shortest_vector_supnorm", "LatticeBasis"):
            patch.setattr(lattice, name, refuse)
        values = [shortest_supnorm_batch(S) for S in stacks]
    rows = [(B, lam) for S, got in zip(stacks, values) for B, lam in zip(S, got)
            if any(np.array_equal(B, A) for A, _ in fallbacks)]
    assert len(rows) == len(fallbacks) >= 10
    for B, lam in rows:
        assert lam == shortest_vector_supnorm(LatticeBasis(B)).length


def test_batch_rejects_bad_stacks():
    for bad in (np.eye(2), np.ones((3, 2, 3)), np.tile(np.eye(7), (2, 1, 1)),
                np.full((1, 2, 2), np.nan)):
        with pytest.raises(ParameterError):
            shortest_supnorm_batch(bad)
    with pytest.raises(ParameterError):
        shortest_supnorm_k2_batch(np.tile(np.eye(3), (2, 1, 1)))


def test_ties_are_ranked_in_the_input_basis_not_in_drifted_columns():
    # two vectors of exactly one length over the float basis; reduced
    # columns carried through the float column operations split the tie
    # and picked (76, 29, -29)
    basis = flowed_basis(random_forms(18, 1, 2), WeightVector(1, 2, (8.0, 4.0, 4.0)))
    sv = shortest_vector_supnorm(basis)
    assert sv.coeffs == (12, 29, 4)
    assert exact_supnorm(basis.columns, (12, 29, 4)) == exact_supnorm(basis.columns,
                                                                     (76, 29, -29))


def _skewed_flowed_bases():
    """Forms lattices at k = 3..5 under central weights of skew 12..24.  At
    skew 12, seed 18 at (m, n) = (1, 2) and seed 16 at (1, 4) hold exact ties
    that reduced columns carried through float column operations split."""
    for m, n in ((1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3)):
        for skew in (12.0, 16.0, 20.0, 24.0):
            s = skew / (1.0 / m + 1.0 / n)
            t = WeightVector(m, n, (s / m,) * m + (s / n,) * n)
            for seed in range(16, 19):
                yield flowed_basis(random_forms(seed, m, n), t)


def test_winner_is_exactly_least_in_its_certified_box():
    # every candidate of a box at least as large as the one the scan
    # certifies, measured with exact sums over the float basis: none is
    # shorter than the winner, and the winner is the least sign-canonical
    # coefficient vector among those of its length
    for basis in _skewed_flowed_bases():
        T, reduced = _reduced(basis)
        sv = shortest_vector_supnorm(basis)
        best = exact_supnorm(basis.columns, sv.coeffs)
        L = np.abs(reduced).max(axis=0).min()
        bounds = np.abs(np.linalg.inv(reduced)).sum(axis=1) * L * (1.0 + 1e-6)
        for c in itertools.product(*(range(-int(b), int(b) + 1) for b in bounds)):
            q = T.dot(np.array(c, dtype=object))
            if not any(q) or next(x for x in q if x != 0) < 0:
                continue
            q = tuple(int(x) for x in q)
            length = exact_supnorm(basis.columns, q)
            assert length >= best
            assert length > best or sv.coeffs <= q
