"""Tests for the experiment drivers in dirichlet_lab.experiments."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from dirichlet_lab.errors import CapacityError, EmptySupportError, ParameterError
from dirichlet_lab.experiments import (
    CounterexampleRecord,
    GoldenRatioInput,
    LiouvilleInput,
    RandomInput,
    RationalInput,
    _collect_in_ball,
    _lambda1_rows_batch,
    equidist_test_k2,
    escape_measure,
    haar_sample_k2,
    no_drift_counterexample,
    nondiv_decay_scan,
    singular_profile,
    thick_fraction_k2,
)
from dirichlet_lab.flows import LinearFormSystem, WeightVector, flowed_basis, random_forms
from dirichlet_lab.lattice import shortest_vector_supnorm
from dirichlet_lab.measures import Ball, LebesgueBox, MapSpec, SelfSimilarIFS

V2 = MapSpec.veronese(2)
LEB01 = LebesgueBox((0.0,), (1.0,))
BALL_V2 = Ball((0.5, 0.375), 2.0)

# affine curve x -> (x, 2x+1); q = (-2, 1) collapses the form exactly,
# so the flowed lattice always holds a vector of length 2 e^{-s}
PLANAR = MapSpec(1, 2, (
    ((Fraction(1), (1,)),),
    ((Fraction(2), (1,)), (Fraction(1), (0,))),
))


# ---------------------------------------------------------------------------
# batch shortest-vector kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,parts", [
    (1, (1.0,)),
    (2, (1.0, 1.0)),
    (2, (2.0, 1.0)),
    (3, (1.0, 1.0, 1.0)),
])
def test_batch_kernel_matches_exact_search(n, parts):
    t = WeightVector(1, n, (sum(parts),) + parts)
    rng = np.random.default_rng(5)
    rows = rng.uniform(-3.0, 3.0, size=(40, n))
    lam = _lambda1_rows_batch(rows, t, cap=1.5)
    for row, got in zip(rows, lam):
        basis = flowed_basis(LinearFormSystem(row.reshape(1, n)), t)
        exact = shortest_vector_supnorm(basis).length
        if exact <= 1.5:
            assert got == pytest.approx(exact, abs=1e-12)
        else:
            assert got > 1.5


def test_batch_kernel_excludes_origin():
    # an integer row would give length 0 if q=0 or the trivial relation won
    t = WeightVector(1, 1, (2.0, 2.0))
    lam = _lambda1_rows_batch(np.array([[1.0], [0.0]]), t, cap=1.0)
    assert np.all(lam > 0.0)
    # integral rows are annihilated by q=1, leaving the shrinking part
    assert lam[0] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_batch_kernel_budget_and_validation():
    t = WeightVector(1, 2, (6.0, 3.0, 3.0))
    rows = np.zeros((3, 2))
    # cap * e^9 ~ 4051 per axis: about 6.6e7 grid points, over SCAN_BUDGET
    with pytest.raises(CapacityError):
        _lambda1_rows_batch(rows, WeightVector(1, 2, (18.0, 9.0, 9.0)), cap=0.5)
    with pytest.raises(ParameterError):
        _lambda1_rows_batch(rows, WeightVector(2, 1, (1.0, 2.0, 3.0)), cap=0.5)
    with pytest.raises(ParameterError):
        _lambda1_rows_batch(np.zeros((3, 4)), t, cap=0.5)


# ---------------------------------------------------------------------------
# escape measure
# ---------------------------------------------------------------------------


def test_collect_in_ball_deterministic_and_inside():
    pts = _collect_in_ball(LEB01, Ball((0.25,), 0.2), 500, seed=3, depth=20)
    again = _collect_in_ball(LEB01, Ball((0.25,), 0.2), 500, seed=3, depth=20)
    assert pts.shape == (500, 1)
    assert np.array_equal(pts, again)
    assert np.all(np.abs(pts - 0.25) <= 0.2)


def test_collect_in_ball_empty_support():
    cantor = SelfSimilarIFS.cantor_middle_thirds()
    with pytest.raises(EmptySupportError):
        _collect_in_ball(cantor, Ball((0.5,), 0.05), 100, seed=0, depth=20,
                         max_factor=20)


def test_escape_nearly_everything_for_eps_near_one():
    cell = escape_measure(V2, LEB01, BALL_V2, WeightVector(1, 2, (2.0, 1.0, 1.0)),
                          0.999, samples=20_000, seed=1)
    assert cell.fraction >= 0.99
    assert cell.n + cell.boundary_n == 20_000


def test_escape_record_shape():
    cell = escape_measure(V2, LEB01, BALL_V2, WeightVector(1, 2, (2.0, 1.0, 1.0)),
                          0.5, samples=2000, seed=1)
    rec = cell.to_record()
    assert list(rec) == ["experiment", "seed", "t", "floor_t", "norm_t", "eps",
                         "fraction", "ci", "n", "boundary_n"]
    assert rec["experiment"] == "escape"
    assert rec["t"] == [2.0, 1.0, 1.0]
    assert rec["floor_t"] == 1.0 and rec["norm_t"] == 2.0
    assert 0.0 <= rec["fraction"] <= 1.0


def test_escape_validation():
    t = WeightVector(1, 2, (2.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        escape_measure(V2, LEB01, BALL_V2, t, 1.5, samples=100, seed=0)
    with pytest.raises(ParameterError):
        escape_measure(V2, LEB01, BALL_V2, WeightVector(1, 1, (1.0, 1.0)),
                       0.5, samples=100, seed=0)


def test_decay_scan_frozen_small_run():
    tl = (WeightVector(1, 2, (6.0, 3.0, 3.0)), WeightVector(1, 2, (8.0, 4.0, 4.0)))
    scan = nondiv_decay_scan(V2, LEB01, BALL_V2, tl, (0.4, 0.2, 0.1),
                             samples=4000, seed=1)
    assert scan.alpha == pytest.approx(1.653733, abs=1e-4)
    assert scan.c2 == pytest.approx(0.976197, abs=1e-4)
    assert scan.excluded_zero_cells == 0
    fr = [c.fraction for c in scan.cells]
    assert fr[0] == pytest.approx(0.237750, abs=1e-9)
    # decreasing in eps within each weight vector
    assert fr[0] > fr[1] > fr[2] and fr[3] > fr[4] > fr[5]
    assert all(s < 0.1 for s in scan.column_span)
    assert all(sl is not None and sl > 0.4 for sl in scan.slopes.values())
    recs = scan.to_records()
    assert len(recs) == 6 and recs[0]["experiment"] == "decay-scan"


def test_planar_curve_escapes_everywhere():
    # 2 e^{-3} < 0.1: every point of the affine curve is pushed out
    t = WeightVector(1, 2, (6.0, 3.0, 3.0))
    planar = escape_measure(PLANAR, LEB01, Ball((0.5, 2.0), 3.0), t, 0.1,
                            samples=2000, seed=2)
    curved = escape_measure(V2, LEB01, BALL_V2, t, 0.1, samples=2000, seed=2)
    assert planar.fraction == 1.0
    assert curved.fraction < 0.05


def test_rational_constant_map_fully_escapes():
    const = MapSpec(1, 2, (
        ((Fraction(1, 2), (0,)),),
        ((Fraction(1, 4), (0,)),),
    ))
    cell = escape_measure(const, LEB01, Ball((0.5, 0.25), 1.0),
                          WeightVector(1, 2, (8.0, 4.0, 4.0)), 0.1,
                          samples=500, seed=2)
    assert cell.fraction == 1.0


# ---------------------------------------------------------------------------
# Haar sampling and equidistribution, k = 2
# ---------------------------------------------------------------------------


def test_haar_matrices_unimodular_and_prefix_stable():
    h = haar_sample_k2(0, 1000)
    assert np.max(np.abs(np.linalg.det(h.matrices) - 1.0)) < 1e-9
    assert h.truncated_mass < 1e-3
    small = haar_sample_k2(0, 100)
    assert np.array_equal(small.matrices, h.matrices[:100])


def test_haar_mean_height_against_quadrature():
    h = haar_sample_k2(0, 1_000_000)
    y0 = math.sqrt(3.0) / 2.0

    def width(y):
        return 1.0 - 2.0 * math.sqrt(max(1.0 - y * y, 0.0)) if y < 1.0 else 1.0

    vol, _ = integrate.quad(lambda y: width(y) / y ** 2, y0, h.y_max, limit=200)
    num, _ = integrate.quad(lambda y: width(y) / y, y0, h.y_max, limit=200)
    oracle = num / vol
    heights = 1.0 / np.sum(h.matrices[:, :, 0] ** 2, axis=1)
    assert abs(heights.mean() - oracle) / oracle < 0.02


def test_haar_thick_mass_stable_across_seeds():
    f1, n1, _ = thick_fraction_k2(haar_sample_k2(1, 100_000).matrices, 0.5)
    f2, n2, _ = thick_fraction_k2(haar_sample_k2(2, 100_000).matrices, 0.5)
    allowed = 2.0 * math.sqrt(f1 * (1 - f1) / n1 + f2 * (1 - f2) / n2)
    assert abs(f1 - f2) <= allowed


def test_thick_mass_nonincreasing_in_eps():
    mats = haar_sample_k2(4, 50_000).matrices
    fracs = [thick_fraction_k2(mats, e)[0] for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_haar_validation():
    with pytest.raises(ParameterError):
        haar_sample_k2(0, 0)
    with pytest.raises(ParameterError):
        haar_sample_k2(0, 10, y_max=1.5)


def test_equidist_discrepancy_small_at_long_times():
    r = equidist_test_k2((0.0, 1.0), 0.0, 9.0, 0.5, samples=100_000, seed=0)
    assert r.translate_estimate == pytest.approx(0.69403, abs=1e-4)
    assert r.haar_estimate == pytest.approx(0.69773, abs=1e-4)
    assert abs(r.discrepancy) <= 0.02
    rec = r.to_record()
    assert rec["experiment"] == "equidist-k2"
    assert rec["t"] == [9.0, 9.0]


def test_equidist_improves_with_flow_time():
    early = equidist_test_k2((0.0, 1.0), 0.0, 2.0, 0.5, samples=100_000, seed=0)
    late = equidist_test_k2((0.0, 1.0), 0.0, 9.0, 0.5, samples=100_000, seed=0)
    assert abs(late.discrepancy) <= abs(early.discrepancy) + 0.01


@pytest.mark.parametrize("y0", [0.3, 0.7])
def test_equidist_base_point_irrelevant(y0):
    r = equidist_test_k2((0.0, 1.0), y0, 9.0, 0.5, samples=100_000, seed=0)
    assert abs(r.discrepancy) <= 0.02


def test_equidist_validation():
    with pytest.raises(ParameterError):
        equidist_test_k2((1.0, 0.0), 0.0, 9.0, 0.5, samples=100, seed=0)
    with pytest.raises(ParameterError):
        equidist_test_k2((0.0, 1.0), 0.0, 9.0, 1.5, samples=100, seed=0)
    with pytest.raises(ParameterError):
        equidist_test_k2((0.0, 1.0), 0.0, -1.0, 0.5, samples=100, seed=0)


# ---------------------------------------------------------------------------
# frozen-coordinate counterexample
# ---------------------------------------------------------------------------


def test_counterexample_all_cases_pass():
    rec = no_drift_counterexample(0.9, math.log(1.5),
                                  [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                                  systems=100, seed=0)
    assert isinstance(rec, CounterexampleRecord)
    assert len(rec.cases) == 600
    assert rec.all_pass
    assert rec.max_lambda1 == pytest.approx(0.804062, abs=1e-5)
    assert all(c.primitive_ok for c in rec.cases)
    assert all(c.lambda1 < 0.9 for c in rec.cases)
    assert all(c.near_vector_q >= 1 for c in rec.cases)
    assert all(c.near_vector_distance < 0.9 for c in rec.cases)
    recs = rec.to_records()
    assert len(recs) == 600
    assert recs[0]["experiment"] == "no-drift-counterexample"


def test_counterexample_window_enforced():
    with pytest.raises(ParameterError):
        no_drift_counterexample(0.6, math.log(1.5), [3.0], systems=1)
    with pytest.raises(ParameterError):
        no_drift_counterexample(0.9, math.log(2.0), [3.0], systems=1)
    with pytest.raises(ParameterError):
        no_drift_counterexample(0.9, math.log(1.5), [-1.0], systems=1)
    with pytest.raises(ParameterError):
        no_drift_counterexample(0.9, math.log(1.5), [3.0], systems=0)


def test_counterexample_fixed_vector_coefficients():
    # the flowed lattice holds e^u e_1 with integer coordinates (1, 0, 0):
    # the first form coordinate is frozen, the shear is unitriangular
    u = math.log(1.5)
    Y = LinearFormSystem(np.array([[0.3], [-1.2]]))
    basis = flowed_basis(Y, WeightVector(2, 1, (u, 5.0, 5.0 + u)))
    target = np.array([1.5, 0.0, 0.0])
    coeff = np.linalg.solve(basis.columns, target)
    assert np.allclose(coeff, [1.0, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# named profiles
# ---------------------------------------------------------------------------


def test_rational_profile_collapses():
    grid = tuple(0.25 * i for i in range(1, 81))
    series = singular_profile(RationalInput(1, 3), grid)
    assert series.label == "rational(1/3)"
    vals = np.array(series.values)
    # once e^{-s} q < 1 for the exact denominator q=3, the value is 3 e^{-s}
    tail = vals[np.array(grid) >= math.log(3.0) + 0.3]
    assert np.all(np.diff(tail) <= 1e-15)
    assert vals[-1] == pytest.approx(3.0 * math.exp(-20.0), rel=1e-9)


def test_liouville_profile_dips_deep():
    grid = tuple(0.25 * i for i in range(1, 121))
    series = singular_profile(LiouvilleInput(5), grid)
    assert min(series.values) <= 0.01
    assert len(series.local_minima) >= 3
    # annotated minima really are strict interior dips
    for i in series.local_minima:
        assert series.values[i] < series.values[i - 1]
        assert series.values[i] < series.values[i + 1]


def test_golden_profile_stays_high():
    grid = tuple(0.25 * i for i in range(1, 81))
    series = singular_profile(GoldenRatioInput(), grid)
    assert min(series.values) >= 0.6


def test_random_profile_reproducible():
    grid = tuple(0.5 * i for i in range(1, 21))
    a = singular_profile(RandomInput(7), grid)
    b = singular_profile(RandomInput(7), grid)
    assert a.values == b.values
    assert a.label == "random(seed=7)"
    recs = a.to_records()
    assert len(recs) == 20
    assert all(r["experiment"] == "singular-profile" for r in recs)


def test_profile_validation():
    with pytest.raises(ParameterError):
        singular_profile(RationalInput(1, 0), (1.0, 2.0))
    with pytest.raises(ParameterError):
        singular_profile(RationalInput(1, 3), (2.0, 1.0))
    with pytest.raises(ParameterError):
        singular_profile(RationalInput(1, 3), ())
