"""Tests for linear-form systems, diagonal flows, and the Dirichlet solvers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_lab.errors import CapacityError, ParameterError
from dirichlet_lab.experiments import _lambda1_rows_batch
from dirichlet_lab.flows import (
    CentralRay,
    DirichletWitness,
    DriftingGrid,
    ExplicitList,
    LinearFormSystem,
    Solvability,
    Verdict,
    WeightVector,
    WeightedRay,
    ba_quality,
    di_classify,
    dirichlet_solvable_direct,
    dirichlet_solvable_lattice,
    flow_matrix,
    flowed_basis,
    forms_basis,
    golden_system,
    liouville_sum,
    liouville_system,
    random_forms,
    shortest_forms_vector,
    trajectory_lambda1,
    witness_holds,
)
from dirichlet_lab.lattice import DEFAULT_MARGIN, ThickRegion, trichotomy


# ---------------------------------------------------------------------------
# weight vectors and flows
# ---------------------------------------------------------------------------


def test_weight_vector_accessors():
    t = WeightVector(1, 2, (3.0, 1.0, 2.0))
    assert t.k == 3
    assert t.floor == 1.0
    assert t.norm == 3.0


def test_weight_vector_rejects_bad_input():
    with pytest.raises(ParameterError):
        WeightVector(1, 1, (1.0, -1.0))
    with pytest.raises(ParameterError):
        WeightVector(1, 1, (1.0, 2.0))  # unbalanced blocks
    with pytest.raises(ParameterError):
        WeightVector(1, 2, (1.0, 0.5, 0.5 + 1e-10))
    with pytest.raises(ParameterError):
        WeightVector(5, 1, (1.0,) * 6)


def test_flow_matrix_signs():
    g = flow_matrix(WeightVector(1, 2, (3.0, 1.0, 2.0)))
    expected = np.diag([math.e ** 3, math.e ** -1, math.e ** -2])
    np.testing.assert_allclose(g, expected, rtol=1e-15)


def test_central_ray_flow():
    t = WeightVector.central(1, 2, 6.0)
    assert t.t == (6.0, 3.0, 3.0)
    g = flow_matrix(t)
    np.testing.assert_allclose(np.diag(g), [math.e ** 6, math.e ** -3, math.e ** -3])


def test_flow_determinant_one():
    for seed in range(30):
        gen = np.random.default_rng(seed)
        m, n = int(gen.integers(1, 3)), int(gen.integers(1, 3))
        r = gen.uniform(0.2, 1.0, m)
        s = gen.uniform(0.2, 1.0, n)
        t = WeightVector.weighted(r / r.sum(), s / s.sum(), gen.uniform(0.5, 20.0))
        assert abs(np.linalg.det(flow_matrix(t)) - 1.0) <= 1e-12


def test_flow_overflow_guard():
    with pytest.raises(ParameterError):
        flow_matrix(WeightVector(1, 1, (350.0, 350.0)))


def test_forms_basis_embedding():
    Y = LinearFormSystem([[0.5]])
    basis = forms_basis(Y)
    np.testing.assert_allclose(basis.columns, [[1.0, 0.5], [0.0, 1.0]])
    # coefficients (-p, q) land on (Yq - p, q)
    point = basis.columns @ np.array([-1, 2])
    np.testing.assert_allclose(point, [0.5 * 2 - 1, 2])


def test_exact_carrier_validation():
    with pytest.raises(ParameterError):
        LinearFormSystem(np.array([[0.5]]), exact=((Fraction(1, 3),),))
    sys = LinearFormSystem.from_exact([[Fraction(1, 3)]])
    assert sys.entry(0, 0) == Fraction(1, 3)
    assert sys.Y[0, 0] == float(Fraction(1, 3))


def test_random_forms_deterministic():
    a = random_forms(17, 2, 2)
    b = random_forms(17, 2, 2)
    c = random_forms(18, 2, 2)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert not np.array_equal(a.Y, c.Y)


# ---------------------------------------------------------------------------
# direct solver
# ---------------------------------------------------------------------------


def test_direct_empty_box_returns_none():
    Y = LinearFormSystem([[0.5]])
    assert dirichlet_solvable_direct(Y, WeightVector(1, 1, (1.0, 1.0)), 0.3) is None


def test_direct_returns_smallest_witness():
    Y = LinearFormSystem([[0.0]])
    w = dirichlet_solvable_direct(Y, WeightVector(1, 1, (2.0, 2.0)), 0.5)
    assert w == DirichletWitness((0,), (1,))


def test_direct_spiral_prefers_positive_small_q():
    # q = 1 fails, q = 2 and q = -2 both work; the scan must pick +2
    Y = LinearFormSystem([[0.49]])
    w = dirichlet_solvable_direct(Y, WeightVector(1, 1, (2.0, 2.0)), 0.5)
    assert w is not None and w.q == (2,)


def test_direct_weak_form_always_solvable_at_eps_one():
    for seed in range(40):
        gen = np.random.default_rng(2000 + seed)
        m, n = int(gen.integers(1, 3)), int(gen.integers(1, 3))
        Y = random_forms(300 + seed, m, n)
        tau = float(gen.uniform(0.5, 3.5)) * max(m, n)
        t = WeightVector.central(m, n, tau)
        w = dirichlet_solvable_direct(Y, t, 1.0, weak_q=True)
        assert w is not None
        assert witness_holds(Y, t, 1.0, True, w)


def test_direct_rejects_eps_out_of_range():
    Y = LinearFormSystem([[0.5]])
    t = WeightVector(1, 1, (1.0, 1.0))
    with pytest.raises(ParameterError):
        dirichlet_solvable_direct(Y, t, 1.5)
    with pytest.raises(ParameterError):
        dirichlet_solvable_direct(Y, t, 0.0)


def test_direct_budget_capacity_error():
    Y = random_forms(5, 1, 2)
    t = WeightVector(1, 2, (20.0, 10.0, 10.0))
    with pytest.raises(CapacityError) as err:
        dirichlet_solvable_direct(Y, t, 0.9)
    assert "100000000" in str(err.value)


def test_witness_verifies_on_construction():
    Y = LinearFormSystem([[0.5]])
    t = WeightVector(1, 1, (2.0, 2.0))
    with pytest.raises(ParameterError):
        DirichletWitness.checked(Y, t, 0.5, False, p=(0,), q=(1,))
    with pytest.raises(ParameterError):
        DirichletWitness((0,), (0,))


def test_weak_witness_set_contains_strict():
    for seed in range(30):
        gen = np.random.default_rng(4000 + seed)
        Y = random_forms(500 + seed, 1, 1)
        t = WeightVector.central(1, 1, float(gen.uniform(0.5, 4.0)))
        eps = float(gen.uniform(0.2, 0.99))
        strict = dirichlet_solvable_direct(Y, t, eps, weak_q=False)
        if strict is not None:
            assert witness_holds(Y, t, eps, True, strict)


# ---------------------------------------------------------------------------
# lattice solver and the dual route
# ---------------------------------------------------------------------------


def test_lattice_rejects_eps_domain():
    Y = LinearFormSystem([[0.5]])
    t = WeightVector(1, 1, (1.0, 1.0))
    for eps in (0.0, 1.0, 1.3):
        with pytest.raises(ParameterError):
            dirichlet_solvable_lattice(Y, t, eps)


def test_golden_ratio_deep_scale_unsolvable():
    Yg = golden_system()
    t = WeightVector(1, 1, (3.0, 3.0))
    assert dirichlet_solvable_lattice(Yg, t, 0.05) is Solvability.UNSOLVABLE
    assert dirichlet_solvable_direct(Yg, t, 0.05) is None


def test_dual_route_agreement():
    boundary = 0
    for trial in range(150):
        gen = np.random.default_rng(7000 + trial)
        m, n = [(1, 1), (1, 2), (2, 1), (2, 2)][trial % 4]
        Y = random_forms(1000 + trial, m, n)
        tau = float(gen.uniform(0.8, 4.0)) * max(m, n)
        t = WeightVector.central(m, n, tau)
        eps = float(gen.uniform(0.2, 0.95))
        status = dirichlet_solvable_lattice(Y, t, eps)
        witness = dirichlet_solvable_direct(Y, t, eps)
        if status is Solvability.BOUNDARY:
            boundary += 1
            continue
        assert (status is Solvability.SOLVABLE) == (witness is not None), (
            "route mismatch at trial %d" % trial
        )
    assert boundary <= 2


def test_eps_monotonicity():
    grid = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    for trial in range(25):
        gen = np.random.default_rng(8000 + trial)
        m, n = [(1, 1), (1, 2), (2, 2)][trial % 3]
        Y = random_forms(1500 + trial, m, n)
        t = WeightVector.central(m, n, float(gen.uniform(1.0, 3.5)) * max(m, n))
        seen_solvable = False
        for eps in grid:
            status = dirichlet_solvable_lattice(Y, t, eps)
            if seen_solvable and status is not Solvability.BOUNDARY:
                assert status is Solvability.SOLVABLE
            if status is Solvability.SOLVABLE:
                seen_solvable = True


def test_exact_carrier_changes_deep_flow_answer():
    # the rational structure of the named value lives far below double
    # resolution; the exact carrier keeps it, the float carrier loses it
    exact = liouville_sum(5)
    lam_exact, pq = shortest_forms_vector(exact, 28.0, 28.0)
    assert lam_exact < 1e-3
    assert pq is not None and pq[1] == 10 ** 6
    lam_float, _ = shortest_forms_vector(float(exact), 28.0, 28.0)
    assert lam_float > 0.1


def test_forms_shortest_matches_generic_enumeration():
    from dirichlet_lab.lattice import shortest_with_region

    for trial in range(120):
        gen = np.random.default_rng(9000 + trial)
        y = float(gen.uniform(-3, 3))
        tl = float(gen.uniform(0.2, 5.0))
        lam, _ = shortest_forms_vector(y, tl, tl)
        basis = flowed_basis(LinearFormSystem([[y]]), WeightVector(1, 1, (tl, tl)))
        sv, _ = shortest_with_region(basis, 0.5, 1e-9)
        assert lam == pytest.approx(sv.length, rel=1e-9)


# ---------------------------------------------------------------------------
# trajectory families
# ---------------------------------------------------------------------------


def test_central_ray_generation():
    fam = CentralRay(step=1.0, count=5)
    norms = [w.norm for w in fam.weights(1, 1)]
    assert norms == [1.0, 2.0, 3.0, 4.0, 5.0]
    fam2 = CentralRay(step=0.5, count=3, start=2.0)
    assert [w.norm for w in fam2.weights(1, 1)] == [2.0, 2.5, 3.0]


def test_weighted_ray_generation():
    fam = WeightedRay(r=(1.0,), s=(0.3, 0.7), step=10.0, count=2)
    ws = fam.weights(1, 2)
    assert ws[0].t == pytest.approx((10.0, 3.0, 7.0))
    assert ws[1].t == pytest.approx((20.0, 6.0, 14.0))
    with pytest.raises(ParameterError):
        WeightedRay(r=(0.5,), s=(1.0,), step=1.0, count=1)  # r does not sum to 1
    with pytest.raises(ParameterError):
        fam.weights(2, 1)


def test_explicit_list_checks_shapes():
    fam = ExplicitList((WeightVector(1, 1, (1.0, 1.0)),))
    with pytest.raises(ParameterError):
        fam.weights(1, 2)


def test_drifting_grid_scales_to_floors():
    base = (WeightVector(1, 2, (2.0, 1.0, 1.0)),)
    fam = DriftingGrid(base=base, floors=(1.0, 3.0))
    ws = fam.weights(1, 2)
    assert [w.floor for w in ws] == [1.0, 3.0]
    assert ws[1].t == pytest.approx((6.0, 3.0, 3.0))
    with pytest.raises(ParameterError):
        DriftingGrid(base=base, floors=(3.0, 1.0))


# ---------------------------------------------------------------------------
# classification and profiles
# ---------------------------------------------------------------------------


def test_trajectory_profile_zero_form():
    Y = LinearFormSystem([[0.0]])
    prof = trajectory_lambda1(Y, CentralRay(step=1.0, count=5))
    values = [lam for _, lam in prof]
    expected = [math.exp(-j) for j in range(1, 6)]
    assert values == pytest.approx(expected, rel=1e-12)


def test_golden_profile_stays_high():
    prof = trajectory_lambda1(golden_system(), CentralRay(step=0.5, count=40))
    assert min(lam for _, lam in prof) >= 0.6


def test_liouville_profile_dips():
    prof = trajectory_lambda1(liouville_system(5), CentralRay(step=0.5, count=60))
    assert min(lam for _, lam in prof) <= 0.01


def test_classify_zero_form_improvable():
    rep = di_classify(LinearFormSystem([[0.0]]), CentralRay(step=0.5, count=20),
                      eps=0.5, horizon_norm=10.0)
    assert rep.verdict is Verdict.IMPROVABLE_UP_TO_HORIZON
    assert rep.last_not_solvable_norm == 0.5


def test_classify_generic_not_improvable():
    rep = di_classify(random_forms(3, 1, 1), CentralRay(step=0.5, count=40),
                      eps=0.3, horizon_norm=20.0)
    assert rep.verdict is Verdict.NOT_IMPROVABLE_WITNESSED
    assert rep.last_not_solvable_norm == 20.0
    assert all(r.witness is not None for r in rep.records
               if r.status is Solvability.SOLVABLE)


def test_classify_liouville_improvable():
    rep = di_classify(liouville_system(5), CentralRay(step=1.0, count=30),
                      eps=0.1, horizon_norm=30.0)
    assert rep.verdict is Verdict.IMPROVABLE_UP_TO_HORIZON
    assert rep.last_not_solvable_norm == 16.0


def test_classify_requires_stretch_coverage():
    with pytest.raises(ParameterError):
        di_classify(LinearFormSystem([[0.0]]), CentralRay(step=1.0, count=3),
                    eps=0.5, horizon_norm=10.0)


def test_classify_report_rows():
    rep = di_classify(LinearFormSystem([[0.0]]), CentralRay(step=2.0, count=5),
                      eps=0.5, horizon_norm=10.0)
    rows = rep.to_records()
    assert len(rows) == 5
    assert [r["norm"] for r in rows] == [2.0, 4.0, 6.0, 8.0, 10.0]
    for row in rows:
        assert set(row) == {"t", "norm", "floor", "solvable", "witness_p", "witness_q"}
    assert rows[0]["solvable"] == "solvable"
    assert rows[0]["witness_q"] == [1]


# ---------------------------------------------------------------------------
# quality scan
# ---------------------------------------------------------------------------


def test_ba_quality_zero_and_rational():
    assert ba_quality(LinearFormSystem([[0.0]]), (1.0,), (1.0,), 1000) == 0.0
    assert ba_quality(LinearFormSystem([[0.5]]), (1.0,), (1.0,), 1000) == 0.0


def test_ba_quality_golden_constant():
    v = ba_quality(golden_system(), (1.0,), (1.0,), 1000)
    assert 0.44 <= v <= 0.45
    assert v == pytest.approx(1 / math.sqrt(5), abs=2e-4)


def test_ba_quality_nonincreasing():
    Y = random_forms(11, 1, 2)
    vals = [ba_quality(Y, (1.0,), (0.5, 0.5), Q) for Q in (5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ba_quality_budget():
    with pytest.raises(CapacityError):
        ba_quality(random_forms(1, 1, 2), (1.0,), (0.5, 0.5), 3000)


# ---------------------------------------------------------------------------
# batch q-grid kernel against the lattice route
# ---------------------------------------------------------------------------


def test_batch_matches_lattice_route():
    # the float q-grid scan plus the shared decision rule must reproduce
    # the per-system lattice route, labels included
    t = WeightVector(1, 2, (2.0, 1.0, 1.0))
    eps = 0.4
    rows = np.stack([random_forms(6000 + i, 1, 2).Y[0] for i in range(60)])
    regions = trichotomy(_lambda1_rows_batch(rows, t, eps + DEFAULT_MARGIN), eps,
                         DEFAULT_MARGIN)
    label = {
        ThickRegion.OUTSIDE: Solvability.SOLVABLE,
        ThickRegion.INSIDE: Solvability.UNSOLVABLE,
        ThickRegion.BOUNDARY: Solvability.BOUNDARY,
    }
    for i in range(60):
        status = dirichlet_solvable_lattice(LinearFormSystem(rows[i:i + 1]), t, eps)
        assert label[regions[i]] is status, "sample %d" % i
