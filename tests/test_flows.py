"""Tests for linear-form systems, diagonal flows, and the Dirichlet solvers."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_lab.config import parse_trajectory
from dirichlet_lab.errors import CapacityError, ParameterError
from dirichlet_lab.experiments import _lambda1_rows_batch
from dirichlet_lab.flows import (
    MAX_FLOW_SKEW,
    DirichletWitness,
    LinearFormSystem,
    Solvability,
    Verdict,
    WeightVector,
    _convergents,
    _forms_lambda1,
    ba_quality,
    di_classify,
    dirichlet_solvable_direct,
    dirichlet_solvable_lattice,
    flow_matrix,
    flowed_bases,
    flowed_basis,
    golden_system,
    liouville_sum,
    liouville_system,
    random_forms,
    shortest_forms_batch,
    shortest_forms_vector,
    trajectory_lambda1,
    witness_holds,
)
from dirichlet_lab import lattice
from dirichlet_lab.lattice import (
    DEFAULT_MARGIN,
    MAX_DIM,
    ThickRegion,
    shortest_supnorm_batch,
    trichotomy,
)

from oracles import ba_quality_scan, continued_fraction_convergents


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
    t = WeightVector(1, 1, (2.0, 2.0))
    basis = flowed_bases([[[0.5]]], t)[0]
    # coefficients (-p, q) land on g_t (Yq - p, q)
    point = basis @ np.array([-1, 2])
    np.testing.assert_allclose(point, [math.exp(2.0) * (0.5 * 2 - 1), math.exp(-2.0) * 2])


def test_flowed_bases_is_the_flow_times_the_forms_basis():
    # a diagonal product adds only exact zeros, so the match is bit for bit
    gen = np.random.default_rng(41)
    for m in range(1, 5):
        for n in range(1, 5):
            r, s = gen.uniform(0.2, 1.0, m), gen.uniform(0.2, 1.0, n)
            t = WeightVector.weighted(r / r.sum(), s / s.sum(), 7.0)
            Y = gen.uniform(-3.0, 3.0, size=(5, m, n))
            got = flowed_bases(Y, t)
            for Yi, Bi in zip(Y, got):
                forms = np.block([[np.eye(m), Yi], [np.zeros((n, m)), np.eye(n)]])
                np.testing.assert_array_equal(Bi, flow_matrix(t) @ forms)
            if m + n <= MAX_DIM:  # the largest LatticeBasis
                system = LinearFormSystem(Y[0])
                np.testing.assert_array_equal(flowed_basis(system, t).columns,
                                              flowed_bases(system.Y[None], t)[0])
            for bad in (Y[0], Y[:, :, :-1], Y[..., None], np.zeros((5, m + 1, n))):
                with pytest.raises(ParameterError):
                    flowed_bases(bad, t)


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


_RANDOM_FLOATS = np.random.default_rng(32).uniform(-3.0, 3.0, 12).tolist()


@pytest.mark.parametrize("x", [
    *(pytest.param(Fraction(n), id="integer-%d" % n) for n in (0, 1, 7)),
    # dyadics: the expansion ends after a few digits
    *(pytest.param(x, id="dyadic-%s" % x)
      for x in (Fraction(1, 2), Fraction(3, 8), Fraction(5, 1024), Fraction(0.75))),
    # a1 = 1: the first two convergents share q = 1
    *(pytest.param(x, id="above-half-%s" % x)
      for x in (Fraction(2, 3), Fraction(0.9), Fraction(0.6180339887498949))),
    *(pytest.param(Fraction(y) % 1, id="float-%d" % i) for i, y in enumerate(_RANDOM_FLOATS)),
])
def test_convergents_match_the_continued_fraction(x):
    got = list(_convergents(x))
    assert got == continued_fraction_convergents(x)
    assert all(abs(x - Fraction(p, q)) < Fraction(1, q * q) for p, q in got)
    assert Fraction(*got[-1]) == x
    if 1 / 2 < x < 1:
        assert [q for _, q in got[:2]] == [1, 1]


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


def central_ray(step: float, count: int) -> tuple:
    """The m = n = 1 central-ray family at norms step, 2 step, ..., count step."""
    return tuple(WeightVector.central(1, 1, step + j * step) for j in range(count))


def test_central_ray_generation():
    fam = parse_trajectory(["ray central t=1:1:5"], 1, 1)
    assert [w.norm for w in fam] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert fam == central_ray(1.0, 5)
    fam2 = parse_trajectory(["ray central t=2:0.5:3"], 1, 1)
    assert [w.norm for w in fam2] == [2.0, 2.5, 3.0]


def test_weighted_ray_generation():
    ws = parse_trajectory(["ray r=1 s=0.3,0.7 t=10:10:2"], 1, 2)
    assert ws[0].t == pytest.approx((10.0, 3.0, 7.0))
    assert ws[1].t == pytest.approx((20.0, 6.0, 14.0))
    with pytest.raises(ParameterError, match="weights must each sum to 1"):
        parse_trajectory(["ray r=0.5 s=1 t=1:1:1"], 1, 1)
    with pytest.raises(ParameterError, match="ray weights sized for m=1, n=2"):
        parse_trajectory(["ray r=1 s=0.3,0.7 t=10:10:2"], 2, 1)


def test_explicit_list_checks_shapes():
    one_one = WeightVector(1, 1, (1.0, 1.0))
    one_two = WeightVector(1, 2, (2.0, 1.0, 1.0))
    # the second pair reaches the k = 2 convergent route
    for Y, t in ((LinearFormSystem([[0.5, 0.25]]), one_one),
                 (LinearFormSystem([[0.5]]), one_two)):
        message = "Y is %dx%d but t is for m=%d, n=%d" % (Y.m, Y.n, t.m, t.n)
        with pytest.raises(ParameterError, match=message):
            trajectory_lambda1(Y, (t,))
        with pytest.raises(ParameterError, match=message):
            di_classify(Y, (t,), eps=0.5, horizon_norm=t.norm)


# ---------------------------------------------------------------------------
# classification and profiles
# ---------------------------------------------------------------------------


def test_trajectory_profile_zero_form():
    Y = LinearFormSystem([[0.0]])
    prof = trajectory_lambda1(Y, central_ray(1.0, 5))
    values = [lam for _, lam in prof]
    expected = [math.exp(-j) for j in range(1, 6)]
    assert values == pytest.approx(expected, rel=1e-12)


def test_golden_profile_stays_high():
    prof = trajectory_lambda1(golden_system(), central_ray(0.5, 40))
    assert min(lam for _, lam in prof) >= 0.6


def test_liouville_profile_dips():
    prof = trajectory_lambda1(liouville_system(5), central_ray(0.5, 60))
    assert min(lam for _, lam in prof) <= 0.01


def test_classify_zero_form_improvable():
    rep = di_classify(LinearFormSystem([[0.0]]), central_ray(0.5, 20),
                      eps=0.5, horizon_norm=10.0)
    assert rep.verdict is Verdict.IMPROVABLE_UP_TO_HORIZON
    assert rep.last_not_solvable_norm == 0.5


def test_classify_generic_not_improvable():
    rep = di_classify(random_forms(3, 1, 1), central_ray(0.5, 40),
                      eps=0.3, horizon_norm=20.0)
    assert rep.verdict is Verdict.NOT_IMPROVABLE_WITNESSED
    assert rep.last_not_solvable_norm == 20.0
    assert all(r.witness is not None for r in rep.records
               if r.status is Solvability.SOLVABLE)


def test_classify_liouville_improvable():
    rep = di_classify(liouville_system(5), central_ray(1.0, 30),
                      eps=0.1, horizon_norm=30.0)
    assert rep.verdict is Verdict.IMPROVABLE_UP_TO_HORIZON
    assert rep.last_not_solvable_norm == 16.0


def test_the_lattice_route_refuses_past_the_precision_cap_at_k3():
    # (16, 8, 24) has flow skew 16 + 24 = 40: refused, though its value is
    # still right; k = 2 takes exact convergents and has no cap
    for t in (WeightVector(2, 1, (16.0, 8.0, 24.0)), WeightVector(1, 2, (30.0, 20.0, 10.0))):
        Y = random_forms(5, t.m, t.n)
        with pytest.raises(CapacityError, match="precision cap"):
            trajectory_lambda1(Y, (t,))
        with pytest.raises(CapacityError, match="precision cap"):
            dirichlet_solvable_lattice(Y, t, 0.5)
        with pytest.raises(CapacityError, match="precision cap"):
            di_classify(Y, (t,), eps=0.5, horizon_norm=t.norm)
    at_cap = WeightVector(2, 1, (10.0, 4.0, 14.0))
    assert 0.0 < trajectory_lambda1(random_forms(5, 2, 1), (at_cap,))[0][1] <= 1.0
    lam = trajectory_lambda1(LinearFormSystem([[0.0]]), (WeightVector(1, 1, (60.0, 60.0)),))
    assert lam[0][1] == pytest.approx(math.exp(-60.0), rel=1e-12)


def test_trajectory_checks_the_whole_family_before_it_reduces(monkeypatch):
    # the last weight's skew 16 + 24 passes the cap 24: refused before the
    # first weight's lattice is reduced
    def no_reduction(*args, **kwargs):
        raise AssertionError("a lattice was reduced before the family was checked")

    monkeypatch.setattr(lattice, "reduce_basis", no_reduction)
    family = (WeightVector(2, 1, (1.0, 0.5, 1.5)), WeightVector(2, 1, (16.0, 8.0, 24.0)))
    with pytest.raises(CapacityError, match="precision cap"):
        trajectory_lambda1(random_forms(5, 2, 1), family)


def test_classify_requires_stretch_coverage():
    with pytest.raises(ParameterError):
        di_classify(LinearFormSystem([[0.0]]), central_ray(1.0, 3),
                    eps=0.5, horizon_norm=10.0)


def test_classify_report_rows():
    rep = di_classify(LinearFormSystem([[0.0]]), central_ray(2.0, 5),
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


def test_ba_quality_keeps_exact_solutions_where_a_weight_power_overflows():
    # q = (2, 0) solves Y q = 1 exactly; past q_max ~ 1200 (s_2 = 0.01) or
    # 3 (s_2 = 0.001) |q_2|^{1/s_2} overflows, and a zero {Y q} times inf
    # once made a NaN that threw away the slice holding q = (2, 0)
    Y = LinearFormSystem([[0.5, 0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [ba_quality(Y, (1.0,), (0.99, 0.01), Q) for Q in (200, 2000)] == [0.0, 0.0]
        vals = [ba_quality(Y, (1.0,), (0.999, 0.001), Q) for Q in range(1, 9)]
    assert vals == [0.25] + [0.0] * 7


def test_ba_quality_budget():
    with pytest.raises(CapacityError):
        ba_quality(random_forms(1, 1, 2), (1.0,), (0.5, 0.5), 3000)


@pytest.mark.parametrize("m,n,q_max", [(1, 1, 5000), (2, 1, 9000), (1, 2, 60), (1, 3, 12)])
def test_ba_quality_scans_the_whole_half_grid(m, n, q_max):
    # each case spans several slices of the half box
    Y = random_forms(3, m, n)
    r = (1.0 / m,) * m
    s = (0.3,) + (0.7 / (n - 1),) * (n - 1) if n > 1 else (1.0,)
    assert ba_quality(Y, r, s, q_max) == pytest.approx(ba_quality_scan(Y.Y, r, s, q_max),
                                                        rel=1e-12)


def test_ba_quality_refuses_weights_that_are_not_positive_reals():
    Y = random_forms(1, 1, 2)
    for r, s in (((math.nan,), (0.5, 0.5)), ((1.0,), (math.nan, math.nan)),
                 ((1.0,), (0.5, math.nan)), ((1.0,), (math.inf, 0.5))):
        with pytest.raises(ParameterError):
            ba_quality(Y, r, s, 5)
    with pytest.raises(ParameterError):
        parse_trajectory(["ray r=nan s=1 t=1:1:1"], 1, 1)


# ---------------------------------------------------------------------------
# batch one-form kernel against the lattice route and the exact route
# ---------------------------------------------------------------------------


def test_batch_matches_lattice_route():
    # the float batch kernel plus the shared decision rule must reproduce
    # the per-system lattice route, labels included
    t = WeightVector(1, 2, (2.0, 1.0, 1.0))
    eps = 0.4
    rows = np.stack([random_forms(6000 + i, 1, 2).Y[0] for i in range(60)])
    regions = trichotomy(_lambda1_rows_batch(rows, t, eps + DEFAULT_MARGIN)[0], eps,
                         DEFAULT_MARGIN)
    label = {
        ThickRegion.OUTSIDE: Solvability.SOLVABLE,
        ThickRegion.INSIDE: Solvability.UNSOLVABLE,
        ThickRegion.BOUNDARY: Solvability.BOUNDARY,
    }
    for i in range(60):
        status = dirichlet_solvable_lattice(LinearFormSystem(rows[i:i + 1]), t, eps)
        assert label[regions[i]] is status, "sample %d" % i


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3),
       skew=st.floats(1.0, MAX_FLOW_SKEW - 1e-9),
       parts=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
       cap=st.floats(0.05, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_the_exact_route_up_to_the_precision_cap(n, skew, parts, cap, seed):
    # t = (s, s w) with s + s max(w) = skew; rows drawn like random_forms
    w = np.array(parts[:n]) / sum(parts[:n])
    s = skew / (1.0 + w.max())
    t = WeightVector(1, n, (s,) + tuple(s * w))
    rows = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(6, n))
    # a float lattice value at flow skew S carries rounding of order
    # 2^-52 e^S (|y q| e^{t_0} with |q_j| <= e^{t_j}); allow 64 such units
    tol = 64.0 * 2.0 ** -52 * math.exp(skew)
    lll = shortest_supnorm_batch(flowed_bases(rows[:, None], t), cap)
    lll = np.where(lll <= cap, lll, cap + 1.0)
    exact = np.array([_forms_lambda1(LinearFormSystem(row.reshape(1, n)), t)[0]
                      for row in rows])
    for row, want, got in zip(rows, exact, lll):
        if want <= cap - tol:
            assert abs(got - want) <= tol, (row, want, got)
        elif want > cap + tol:
            assert got == cap + 1.0
    # the rows batch is the LLL kernel at n >= 2 and, like _forms_lambda1,
    # the exact convergents at n = 1
    want = np.where(exact <= cap, exact, cap + 1.0) if n == 1 else lll
    assert np.array_equal(_lambda1_rows_batch(rows, t, cap)[0], want)


def _forms_batch_inputs() -> np.ndarray:
    """y values for the bit-for-bit tests of shortest_forms_batch."""
    gen = np.random.default_rng(31)
    uniform = gen.uniform(-4.0, 4.0, 300)
    # a/b + or - 2^-20 .. 2^-45: partial quotients up to about 2^45 / b^2
    near = [a / b + sign * 2.0 ** -e for b in range(1, 12) for a in range(-b, 2 * b)
            for e in (20, 33, 45) for sign in (1, -1)]
    # x < 2^-10 (where x 2^62 is no integer, the scalar route runs), integers,
    # negative y, a subnormal and |y| >= 2^52
    tiny = gen.uniform(0.0, 2.0 ** -10, 30)
    edges = [0.0, -0.0, 1.0, -3.0, 0.5, -0.5, 2.0 ** -10, -2.0 ** -11, 5e-324,
             1.0 - 2.0 ** -53, 2.0 ** 52 + 1.0, -2.0 ** 53, 1e6 + 0.1, -1e6 - 0.1, 1e300]
    return np.concatenate([uniform, near, tiny, -tiny, edges])


@pytest.mark.parametrize("t_left,t_right", [
    (0.5, 0.5), (9.0, 9.0), (12.0, 12.0), (30.0, 30.0), (3.0, 7.0), (30.0, 11.0),
    (45.0, 45.0),  # most rows run to the end of their expansion, k up to 2^62
])
def test_forms_batch_is_the_scalar_route_bit_for_bit(monkeypatch, t_left, t_right):
    y = _forms_batch_inputs()
    want = [shortest_forms_vector(v, t_left, t_right)[0] for v in y.tolist()]
    got = shortest_forms_batch(y, t_left, t_right)
    assert np.array_equal(got, want)
    monkeypatch.setattr(lattice, "_CHUNK", 64)
    assert np.array_equal(shortest_forms_batch(y, t_left, t_right), got)


def test_forms_batch_refuses_what_is_not_a_vector_of_finite_values():
    for bad in (np.zeros((2, 2)), np.array([0.5, math.nan]), np.array([math.inf])):
        with pytest.raises(ParameterError):
            shortest_forms_batch(bad, 1.0, 1.0)
    assert shortest_forms_batch(np.zeros(0), 1.0, 1.0).shape == (0,)


_NEAR_RATIONAL = st.builds(lambda a, b, e, sign: a / b + sign * 2.0 ** -e,
                           st.integers(-50, 50), st.integers(1, 50), st.integers(10, 60),
                           st.sampled_from((1, -1)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(y=st.lists(st.floats(allow_nan=False, allow_infinity=False) | _NEAR_RATIONAL,
                  min_size=1, max_size=12),
       t_left=st.floats(0.01, 30.0),
       t_right=st.floats(0.01, 30.0))
def test_forms_batch_is_the_scalar_route_on_any_input(y, t_left, t_right):
    want = [shortest_forms_vector(v, t_left, t_right)[0] for v in y]
    assert np.array_equal(shortest_forms_batch(np.array(y), t_left, t_right), want)


def _zero_remainder_inputs() -> np.ndarray:
    """y whose Euclid on (x 2^62, 2^62) ends in a zero remainder, at steps 1
    (x = 0), 2 (1/2, 2^-30, 2^-60), 3 (5/16, 1 - 2^-52), 4 (3/8) and later
    (dyadics with more bits near 2^-30 and 2^-60), with their negatives and
    their shifts by integers."""
    x = [0.0, 0.5, 0.375, 0.3125, 1.0 - 2.0 ** -52,
         2.0 ** -30, 3.0 * 2.0 ** -31, 2.0 ** -30 + 2.0 ** -50, 2.0 ** -30 - 2.0 ** -55,
         2.0 ** -60, 3.0 * 2.0 ** -61, 2.0 ** -60 + 2.0 ** -62, 5.0 * 2.0 ** -62]
    y = np.array([v + shift for v in x for shift in (0.0, 1.0, -2.0, 7.0, 2.0 ** 20)])
    return np.concatenate([y, -y])


_ZERO_REMAINDER_TIMES = (0.5, 2.0, 9.0, 12.0, 20.0, 28.0)


@pytest.mark.parametrize("t", _ZERO_REMAINDER_TIMES)
def test_forms_batch_rows_that_reach_a_zero_remainder(t):
    # the batch marks a row live by length < best alone: at r = 0 the
    # candidate is the length itself, so such a row is done at that step
    y = _zero_remainder_inputs()
    want = [shortest_forms_vector(v, t, t)[0] for v in y.tolist()]
    assert np.array_equal(shortest_forms_batch(y, t, t), want)
    # a stack across a chunk boundary, zero-remainder rows beside rows that
    # run on, in a phase that puts every kind of row on both sides of it
    mixed = np.concatenate([y, np.random.default_rng(5).uniform(-3.0, 3.0, 97)])
    want = np.array([shortest_forms_vector(v, t, t)[0] for v in mixed.tolist()])
    chunk = lattice._CHUNK
    idx = np.arange(chunk - 3 * mixed.size // 2, chunk + 2 * mixed.size) % mixed.size
    assert np.array_equal(shortest_forms_batch(mixed[idx], t, t), want[idx])


@pytest.mark.parametrize("t", _ZERO_REMAINDER_TIMES)
def test_forms_batch_stack_done_after_the_first_step(t):
    # after the first step (k = 1) a row is done iff grow x <= shrink, and
    # then its value is shrink; at x = 0 (integer y) the remainder is 0 too
    grow, shrink = math.exp(t), math.exp(-t)
    small = [2.0 ** -j for j in range(1, 63) if grow * 2.0 ** -j <= shrink]
    y = np.array([0.0, -0.0, 1.0, -1.0, 5.0, -2.0 ** 40, 2.0 ** 53] + small + [-v for v in small])
    want = [shortest_forms_vector(v, t, t)[0] for v in y.tolist()]
    got = shortest_forms_batch(y, t, t)
    assert np.array_equal(got, want)
    assert np.all(got == shrink)
