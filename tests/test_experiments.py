"""Tests for the experiment drivers in dirichlet_lab.experiments."""

import hashlib
import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dirichlet_lab import experiments, lattice, rng
from dirichlet_lab.errors import CapacityError, EmptySupportError, ParameterError
from dirichlet_lab.experiments import (
    CounterexampleRecord,
    _collect_in_ball,
    _lambda1_rows_batch,
    _near_vectors,
    _region_counts,
    equidist_test_k2,
    escape_table,
    haar_sample_k2,
    no_drift_counterexample,
    nondiv_decay_scan,
    singular_profile,
    thick_fraction_k2,
)
from dirichlet_lab.config import parse_map
from dirichlet_lab.flows import (
    LinearFormSystem,
    WeightVector,
    flowed_bases,
    flowed_basis,
    golden_system,
    liouville_system,
    random_forms,
)
from dirichlet_lab.lattice import (
    DEFAULT_MARGIN,
    ThickRegion,
    shortest_supnorm_batch,
    shortest_vector_supnorm,
    trichotomy,
)
from dirichlet_lab.measures import (
    Ball,
    LebesgueBox,
    MapSpec,
    SelfSimilarIFS,
    _binomial_half_width,
    sample,
)
from dirichlet_lab.rng import BLOCK

from oracles import counterexample_cases, first_in_ball, invariant_thin_grid_k2, near_vector_scan

V2 = MapSpec.veronese(2)
LEB01 = LebesgueBox((0.0,), (1.0,))
CANTOR = SelfSimilarIFS.cantor_middle_thirds()
# a Cantor point's radius-0.01 ball: about one draw in 22 lands in it
CANTOR_BALL = Ball((0.7407407,), 0.01)
BALL_V2 = Ball((0.5,), 2.0)

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
    # the LLL batch kernel on the forms lattices, and the rows batch (at
    # n = 1 the exact convergents, not the LLL kernel)
    t = WeightVector(1, n, (sum(parts),) + parts)
    rng = np.random.default_rng(5)
    rows = rng.uniform(-3.0, 3.0, size=(40, n))
    lll = shortest_supnorm_batch(flowed_bases(rows[:, None], t), 1.5)
    for lam in (lll, _lambda1_rows_batch(rows, t, cap=1.5)[0]):
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
    rows = np.array([[1.0], [0.0]])
    lll = shortest_supnorm_batch(flowed_bases(rows[:, None], t), 1.0)
    for lam in (lll, _lambda1_rows_batch(rows, t, cap=1.0)[0]):
        assert np.all(lam > 0.0)
        # integral rows are annihilated by q=1, leaving the shrinking part
        assert lam[0] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_batch_kernel_budget_and_validation():
    t = WeightVector(1, 2, (6.0, 3.0, 3.0))
    rows = np.zeros((3, 2))
    # flow skews 18 + 9 and 60 + 30 are past MAX_FLOW_SKEW = 24
    for big in ((18.0, 9.0, 9.0), (60.0, 30.0, 30.0)):
        with pytest.raises(CapacityError):
            _lambda1_rows_batch(rows, WeightVector(1, 2, big), cap=0.5)
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
    # a ball that reaches [0, 1] only on [1 - 2^-30, 1]: the budget of
    # ceil(1000 * 100 / BLOCK) = 25 blocks runs out
    edge = Ball((1.5,), 0.5 + 2.0 ** -30)
    with pytest.raises(EmptySupportError,
                       match="^kept 0 of 100 needed samples after 102400 draws$"):
        _collect_in_ball(LEB01, edge, 100, seed=0, depth=20)


@pytest.mark.parametrize("measure,ball", [
    (CANTOR, Ball((0.5,), 0.05)),  # inside the removed middle third
    (LEB01, Ball((1.5,), 0.5 - 2.0 ** -30)),
], ids=["cantor-gap", "beside-the-box"])
def test_a_proven_miss_is_refused_before_any_draw(monkeypatch, measure, ball):
    drawn = []
    monkeypatch.setattr(experiments._rng, "stream",
                        lambda *args, **kwargs: drawn.append(args) or None)
    with pytest.raises(EmptySupportError, match="misses the support of the measure"):
        _collect_in_ball(measure, ball, 100, seed=0, depth=20)
    assert drawn == []


@pytest.mark.parametrize("workers", [1, 2])
def test_collect_in_ball_is_the_in_ball_prefix_of_one_run(workers):
    # count 5000 makes each pass 5000 draws, so passes straddle blocks
    got = _collect_in_ball(CANTOR, CANTOR_BALL, 5000, seed=0, depth=20, workers=workers)
    once = sample(CANTOR, 0, 200_000, depth=20)
    inside = once[CANTOR_BALL.contains(once)]
    assert inside.shape[0] >= 5000
    np.testing.assert_array_equal(got, inside[:5000])


def test_collect_in_ball_draws_each_position_once(monkeypatch):
    windows = []

    def counting_sample(*args, **kwargs):
        pts = sample(*args, **kwargs)
        windows.append((kwargs["start"], pts.shape[0]))
        return pts

    monkeypatch.setattr(experiments, "sample", counting_sample)
    _collect_in_ball(CANTOR, CANTOR_BALL, 5000, seed=0, depth=20)
    assert len(windows) > 1
    # whole blocks, each pass starting where the previous one stopped
    assert all(start % BLOCK == 0 and size % BLOCK == 0 and size > 0
               for start, size in windows)
    ends = [0] + [start + size for start, size in windows]
    assert [start for start, _ in windows] == ends[:-1]


@st.composite
def _ifs_and_ball(draw):
    """An IFS of 2-5 maps in R^1 or R^2 and a ball near its attractor: around
    one of its sampled points, or with another exactly on the ball's edge."""
    maps, d = draw(st.integers(2, 5)), draw(st.sampled_from((1, 2)))
    ratios = draw(st.lists(st.floats(0.05, 0.95), min_size=maps, max_size=maps))
    trans = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
                          min_size=maps, max_size=maps))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=maps, max_size=maps))
    measure = SelfSimilarIFS(ratios, trans, [w / sum(weights) for w in weights])
    depth = draw(st.integers(1, 30))
    points = sample(measure, 99, 2, depth=depth)
    center = points[0] + np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=d,
                                                max_size=d)))
    if draw(st.booleans()):  # points[1] lies on the edge, as contains computes it
        diff = points[1] - center
        radius = float(np.sqrt(np.sum(diff * diff)))
    else:
        radius = draw(st.sampled_from((1e-3, 0.01, 0.05, 0.2, 1.0)))
    return measure, Ball(tuple(center), max(radius, 1e-6)), depth


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_ifs_and_ball(), count=st.integers(1, 30), seed=st.integers(0, 3))
def test_pruned_collection_equals_the_unpruned_oracle(case, count, seed):
    # sample's within= prunes cylinders and first_kept sizes passes by the
    # rate; neither may change a kept row or when the budget runs out
    measure, ball, depth = case
    try:
        want = first_in_ball(measure, ball, count, seed, depth)
    except EmptySupportError:
        want = None
    try:
        got = _collect_in_ball(measure, ball, count, seed, depth)
    except EmptySupportError:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [2, 3, 5])
def test_a_cantor_ball_tangent_at_two_thirds_keeps_its_edge(depth):
    # address (1, 0, 0, ...) lands exactly on 2/3, the ball's right edge
    ball = Ball((0.6,), 2 / 3 - 0.6)
    got = _collect_in_ball(CANTOR, ball, 3, seed=1, depth=depth)
    assert np.array_equal(got, first_in_ball(CANTOR, ball, 3, 1, depth))
    assert np.all(got == 2 / 3)


def test_first_kept_rows_do_not_depend_on_pass_sizes(monkeypatch):
    sizes = []

    def window(start, size):
        sizes.append(size)
        return sample(LEB01, 4, size, start=start)

    def keep(rows):
        return rows[:, 0] < 0.003

    default = rng.first_kept(window, keep, 700)
    assert max(sizes) > BLOCK
    for cap in (BLOCK, 3 * BLOCK):
        monkeypatch.setattr(rng, "_PASS_CAP", cap)
        sizes.clear()
        assert np.array_equal(rng.first_kept(window, keep, 700), default)
        assert max(sizes) == cap


def test_collect_in_ball_holds_one_capped_pass_at_a_time():
    # acceptance 1e-3: after the first block, the observed rate asks for
    # about 2 million rows, and the cap holds each pass to 2^18.  A pass
    # of 2 MB, its blocks before they are joined, and the temporaries of
    # Ball.contains stay well within eight passes' worth.
    ball = Ball((0.5,), 5e-4)
    _collect_in_ball(LEB01, ball, 50, seed=0, depth=20)  # caches and imports
    tracemalloc.start()
    try:
        _collect_in_ball(LEB01, ball, 2000, seed=0, depth=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * rng._PASS_CAP


@pytest.mark.parametrize("points,digest", [
    (lambda: _collect_in_ball(CANTOR, CANTOR_BALL, 5000, seed=0, depth=20),
     "2fb610509dacd9b9270224d2312b893f2fa1ad53fecc935dcf9a368babc6abda"),
    (lambda: sample(LebesgueBox((0,), (1,)), 3, 10000),
     "0e2403e30578dec7d2b03a52c9136ea988ea63ea0999bafa29063b4f52ca22b1"),
], ids=["collect", "box"])
def test_stream_order_is_pinned(points, digest):
    # sampled points, not reports: any change to block keying, block
    # length or window slicing moves these digests
    assert hashlib.sha256(points().tobytes()).hexdigest() == digest


def test_escape_nearly_everything_for_eps_near_one():
    (cell,) = escape_table(V2, LEB01, BALL_V2, (WeightVector(1, 2, (2.0, 1.0, 1.0)),),
                           (0.999,), samples=20_000, seed=1)
    assert cell.fraction >= 0.99
    assert cell.n + cell.boundary_n == 20_000


def test_escape_record_shape():
    (cell,) = escape_table(V2, LEB01, BALL_V2, (WeightVector(1, 2, (2.0, 1.0, 1.0)),),
                           (0.5,), samples=2000, seed=1)
    rec = asdict(cell)
    assert list(rec) == ["experiment", "seed", "t", "floor_t", "norm_t", "eps",
                         "fraction", "ci", "n", "boundary_n"]
    assert rec["experiment"] == "escape"
    assert rec["t"] == (2.0, 1.0, 1.0)
    assert rec["floor_t"] == 1.0 and rec["norm_t"] == 2.0
    assert 0.0 <= rec["fraction"] <= 1.0


def test_escape_validation():
    t = WeightVector(1, 2, (2.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        escape_table(V2, LEB01, BALL_V2, (t,), (1.5,), samples=100, seed=0)
    with pytest.raises(ParameterError):
        escape_table(V2, LEB01, BALL_V2, (WeightVector(1, 1, (1.0, 1.0)),),
                     (0.5,), samples=100, seed=0)


@pytest.mark.parametrize("scan", [escape_table, nondiv_decay_scan])
def test_an_empty_t_list_is_refused_before_sampling(monkeypatch, scan):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(experiments, "_collect_in_ball", no_sampling)
    with pytest.raises(ParameterError, match="need at least one weight vector"):
        scan(V2, LEB01, BALL_V2, (), (0.5,), samples=100, seed=0)


def test_escape_runs_up_to_the_precision_cap():
    # flow skew 18 + 6 = 24 is the cap itself; n = 3 at this t used to be
    # refused for its q-grid size
    (cell,) = escape_table(MapSpec.veronese(3), LEB01, BALL_V2,
                           (WeightVector(1, 3, (18.0, 6.0, 6.0, 6.0)),), (0.4,),
                           samples=200, seed=1)
    assert cell.n + cell.boundary_n == 200
    assert 0.0 <= cell.fraction <= 1.0
    with pytest.raises(CapacityError):
        escape_table(MapSpec.veronese(1), LEB01, BALL_V2,
                     (WeightVector(1, 1, (13.0, 13.0)),), (0.4,), samples=200, seed=1)


@pytest.mark.parametrize("mapping,t_list", [
    (V2, ((6, 3, 3), (8, 4, 4), (10, 5, 5), (16, 8, 8))),
    (V2, ((16, 8, 8), (12, 6, 6), (8, 4, 4))),
    (V2, ((10, 5, 5), (10, 2, 8), (14, 10, 4), (10, 8, 2))),
    (MapSpec.veronese(3), ((18, 6, 6, 6), (12, 6, 3, 3), (9, 3, 3, 3))),
], ids=["ray", "reversed", "off-ray", "k4"])
def test_escape_and_decay_along_a_t_list_equal_cold_runs_per_t(monkeypatch, mapping, t_list):
    # the first t starts from the transform of the kept point nearest the
    # ball's center, every t after it from the previous t's transforms, and
    # the cells are those of one cold run per t
    weights = tuple(WeightVector(1, mapping.n, tuple(map(float, t))) for t in t_list)
    eps = (0.05, 0.1, 0.2, 0.4)
    cold = [cell for t in weights
            for cell in escape_table(mapping, LEB01, BALL_V2, (t,), eps, samples=1500, seed=3)]
    starts, rows_batch = [], experiments._lambda1_rows_batch

    def recording(rows, t, cap, start=None):
        starts.append(start)
        return rows_batch(rows, t, cap, start)

    monkeypatch.setattr(experiments, "_lambda1_rows_batch", recording)
    assert escape_table(mapping, LEB01, BALL_V2, weights, eps, samples=1500, seed=3) == tuple(cold)
    pts = _collect_in_ball(LEB01, BALL_V2, 1500, seed=3, depth=20)
    nearest = mapping.evaluate(pts[np.argmin(np.abs(pts[:, 0] - 0.5))][None])
    _, center_T = lattice._shortest_batch(flowed_bases(nearest[:, None], weights[0]), 1.0)
    assert np.array_equal(starts[0], np.repeat(center_T, 1500, axis=2))
    assert all(start.shape == (mapping.n + 1,) * 2 + (1500,) for start in starts)
    scan = nondiv_decay_scan(mapping, LEB01, BALL_V2, weights, eps, samples=1500, seed=3)
    assert [asdict(c) for c in scan.cells] == [dict(asdict(c), experiment="decay-scan")
                                               for c in cold]


def test_decay_scan_fits_nothing_through_one_eps():
    # two t at one eps: each fit has one distinct log eps, so there is no
    # slope to report; one t given twice is refused before sampling
    t = WeightVector(1, 2, (2.0, 1.0, 1.0))
    scan = nondiv_decay_scan(V2, LEB01, BALL_V2, (t, WeightVector(1, 2, (4.0, 2.0, 2.0))),
                             (0.9,), samples=200, seed=0)
    assert all(cell.fraction > 0.0 for cell in scan.cells)
    assert scan.alpha is None and scan.c2 is None
    assert set(scan.slopes.values()) == {None}
    for scan in (escape_table, nondiv_decay_scan):
        with pytest.raises(ParameterError, match="a weight vector is given twice"):
            scan(V2, LEB01, BALL_V2, (t, WeightVector(1, 2, (2, 1, 1))), (0.9,),
                 samples=200, seed=0)


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
    recs = [asdict(c) for c in scan.cells]
    assert len(recs) == 6 and recs[0]["experiment"] == "decay-scan"


@pytest.mark.parametrize("decl,alpha_theory", [
    ("veronese n=2", 1 / 2),
    ("veronese n=3", 1 / 3),
    ("poly d=2 n=1 f1=x1^2+x1*x2", 1 / 4),
    ("poly d=1 n=2 f1=1/2 f2=1/4", None),
], ids=["veronese-2", "veronese-3", "poly-d2-degree2", "constant"])
def test_decay_scan_alpha_theory_is_one_over_d_times_degree(decl, alpha_theory):
    mapping = parse_map(decl)
    box = LebesgueBox((0.0,) * mapping.d, (1.0,) * mapping.d)
    t = WeightVector(1, mapping.n, (float(mapping.n),) + (1.0,) * mapping.n)
    scan = nondiv_decay_scan(mapping, box, Ball((0.5,) * mapping.d, 10.0), (t,),
                             (0.2, 0.4), samples=200, seed=0)
    assert scan.alpha_theory == alpha_theory


def test_planar_curve_escapes_everywhere():
    # 2 e^{-3} < 0.1: every point of the affine curve is pushed out
    t = WeightVector(1, 2, (6.0, 3.0, 3.0))
    (planar,) = escape_table(PLANAR, LEB01, Ball((0.5,), 3.0), (t,), (0.1,),
                             samples=2000, seed=2)
    (curved,) = escape_table(V2, LEB01, BALL_V2, (t,), (0.1,), samples=2000, seed=2)
    assert planar.fraction == 1.0
    assert curved.fraction < 0.05


def test_rational_constant_map_fully_escapes():
    const = MapSpec(1, 2, (
        ((Fraction(1, 2), (0,)),),
        ((Fraction(1, 4), (0,)),),
    ))
    (cell,) = escape_table(const, LEB01, Ball((0.5,), 1.0),
                           (WeightVector(1, 2, (8.0, 4.0, 4.0)),), (0.1,),
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


def test_haar_sample_with_truncation_correction_reads_siegel():
    # Siegel: mu(lambda1 < eps) = 12 eps^2 / pi^2 for eps <= 1/sqrt(2).  The
    # lattices beyond the y cutoff are all thin, so thick = (1 - m) p; without
    # the factor the thin fraction reads 3.2 half-widths low at eps 0.1.
    h = haar_sample_k2(0, 400_000)
    for eps in (0.1, 0.3, 0.5, 0.7):
        thick, n, _ = thick_fraction_k2(h.matrices, eps)
        thin = 1.0 - (1.0 - h.truncated_mass) * thick
        exact = 12.0 * eps * eps / math.pi ** 2
        assert abs(thin - exact) <= 2.0 * _binomial_half_width(exact, n), eps


def _siegel_thick(eps, margin):
    # mu(lambda1 >= eps + margin | lambda1 outside the boundary band), from
    # mu(lambda1 < r) = 12 r^2 / pi^2 for r <= 1/sqrt(2)
    def thin(r):
        return 12.0 * r * r / math.pi ** 2
    return (1.0 - thin(eps + margin)) / (1.0 - thin(eps + margin)
                                         + thin(max(eps - margin, 0.0)))


@pytest.mark.parametrize("eps,margin", [(0.3, DEFAULT_MARGIN), (0.5, DEFAULT_MARGIN),
                                        (0.5, 0.1), (0.3, 0.2)])
def test_horocycle_translates_reach_the_siegel_value(eps, margin):
    # with a margin both sides leave out the band eps - margin <= lambda1 <
    # eps + margin: at eps 0.5, margin 0.1 the translates read 0.7439, where
    # the unconditional 1 - 3/pi^2 = 0.6960 is 17 half-widths away
    r = equidist_test_k2((0.0, 1.0), 0.3, 12.0, eps, samples=100_000, seed=0,
                         margin=margin)
    assert {"haar_n", "haar_boundary_n"}.isdisjoint(asdict(r))
    assert r.haar_estimate == pytest.approx(_siegel_thick(eps, margin), rel=1e-14)
    hw = _binomial_half_width(r.translate_estimate, r.translate_n)
    assert abs(r.discrepancy) <= 2.0 * hw


@pytest.mark.parametrize("eps,margin", [(0.1, DEFAULT_MARGIN), (0.5, DEFAULT_MARGIN),
                                        (0.7, DEFAULT_MARGIN), (math.sqrt(0.5), 0.0),
                                        (0.8, DEFAULT_MARGIN), (0.7, 0.01), (0.6, 0.2)])
def test_equidist_reference_is_exact_where_two_eps_squared_is_at_most_one(eps, margin):
    # and above it, where the closed form takes over; no Haar lattice is drawn
    r = equidist_test_k2((0.0, 1.0), 0.0, 4.0, eps, samples=5000, seed=1, margin=margin)
    assert {"haar_n", "haar_boundary_n"}.isdisjoint(asdict(r))
    if 2 * Fraction(eps + margin) ** 2 <= 1:
        assert r.haar_estimate == pytest.approx(_siegel_thick(eps, margin), rel=1e-14)
    else:  # sqrt(0.5) rounds to the float just above 1/sqrt(2)
        thick = 1.0 - invariant_thin_grid_k2(eps + margin)
        grid = thick / (thick + invariant_thin_grid_k2(max(eps - margin, 0.0)))
        assert r.haar_estimate == pytest.approx(grid, abs=2e-6)
    thin = experiments._invariant_thin_k2
    thick = 1.0 - thin(eps + margin)
    assert r.haar_estimate == thick / (thick + thin(max(eps - margin, 0.0)))
    assert r.discrepancy == r.translate_estimate - r.haar_estimate


# mu(lambda1 < r) from a polar quadrature (Gauss-Legendre, 64 nodes) that a
# 3000 x 3000 grid matched on every printed digit
_THIN_QUADRATURE = {0.72: 0.6302793, 0.75: 0.6832143, 0.8: 0.7711874, 0.85: 0.8536209,
                    0.9: 0.9244622, 0.95: 0.9768175, 0.99: 0.9986821}


def test_invariant_thin_mass_matches_quadrature_digits():
    for r, digits in _THIN_QUADRATURE.items():
        assert abs(experiments._invariant_thin_k2(r) - digits) <= 5e-8, r


@pytest.mark.parametrize("r", [0.72, 0.8, 0.9, 0.95])
def test_invariant_thin_mass_matches_a_grid_of_its_definition(r):
    assert abs(experiments._invariant_thin_k2(r) - invariant_thin_grid_k2(r)) <= 1e-6


def test_haar_sample_with_truncation_correction_reads_the_closed_form():
    # above 1/sqrt(2) two +-pairs fit in the square, and the exact value is
    # the closed form; 4 half-widths, as the three eps share one sample
    h = haar_sample_k2(0, 400_000)
    for eps in (0.75, 0.85, 0.95):
        thick, n, _ = thick_fraction_k2(h.matrices, eps)
        thin = 1.0 - (1.0 - h.truncated_mass) * thick
        exact = experiments._invariant_thin_k2(eps)
        assert abs(thin - exact) <= 4.0 * _binomial_half_width(exact, n), eps


def test_invariant_thin_mass_is_continuous_monotone_and_reaches_one():
    thin = experiments._invariant_thin_k2
    edge = math.sqrt(0.5)  # the float just above 1/sqrt(2): the closed form
    assert 2 * Fraction(edge) ** 2 > 1 >= 2 * Fraction(np.nextafter(edge, 0.0)) ** 2
    assert thin(edge) == pytest.approx(thin(float(np.nextafter(edge, 0.0))), abs=1e-15)
    assert thin(edge) == pytest.approx(6.0 / math.pi ** 2, abs=1e-15)
    values = [thin(float(r)) for r in np.linspace(0.0, 1.2, 2401)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert 1.0 - thin(1.0 - 1e-6) < 1e-9
    assert thin(1.0) == thin(1.5) == 1.0


def test_equidist_reference_is_zero_when_the_band_holds_the_whole_law():
    # eps - margin <= 0 and eps + margin >= 1: both sides leave out every lattice
    r = equidist_test_k2((0.0, 1.0), 0.0, 4.0, 0.5, samples=1000, seed=0, margin=0.6)
    assert (r.translate_estimate, r.haar_estimate, r.discrepancy) == (0.0, 0.0, 0.0)
    assert (r.translate_n, r.translate_boundary_n) == (0, 1000)
    assert {"haar_n", "haar_boundary_n"}.isdisjoint(asdict(r))


def test_thick_mass_nonincreasing_in_eps():
    mats = haar_sample_k2(4, 50_000).matrices
    fracs = [thick_fraction_k2(mats, e)[0] for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_haar_validation():
    with pytest.raises(ParameterError):
        haar_sample_k2(0, 0)


def test_haar_slices_change_no_bit(monkeypatch):
    # the reference builds rot @ upper on the whole stack of the same accepted rows
    kept, first_kept = [], experiments._rng.first_kept
    monkeypatch.setattr(experiments._rng, "first_kept",
                        lambda *args: kept.append(first_kept(*args)) or kept[-1])
    count = 2 * experiments._HAAR_SLICE + 7
    got = haar_sample_k2(3, count).matrices
    x, y, theta = kept[0].T
    root, cos, sin = np.sqrt(y), np.cos(theta), np.sin(theta)
    upper = np.zeros((count, 2, 2))
    upper[:, 0, 0], upper[:, 0, 1], upper[:, 1, 1] = 1.0 / root, x / root, root
    rot = np.zeros((count, 2, 2))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = cos, -sin, sin, cos
    assert np.array_equal(got, rot @ upper)


def test_equidist_report_does_not_depend_on_slice_sizes(monkeypatch):
    # equidist's chunks are flows.shortest_forms_batch's; the Haar sampler
    # and the LLL batch kernel it feeds are checked beside it, at eps 0.8
    args = ((0.0, 1.0), 0.0, 9.0, 0.5)
    whole = equidist_test_k2(*args, samples=2 * BLOCK + 7, seed=5)
    haar = thick_fraction_k2(haar_sample_k2(5, 2 * BLOCK + 7).matrices, 0.8)
    with monkeypatch.context() as m:
        m.setattr(experiments, "_HAAR_SLICE", 1000)
        m.setattr(lattice, "_CHUNK", 1000)
        assert equidist_test_k2(*args, samples=2 * BLOCK + 7, seed=5) == whole
        assert thick_fraction_k2(haar_sample_k2(5, 2 * BLOCK + 7).matrices, 0.8) == haar


def test_equidist_working_set_is_about_one_slice():
    # Traced peak of the Haar sampler and the thick fraction of its bases at
    # 100 000 samples.  Whole-stack Haar bases (rot, upper and their product
    # at 3.2 MB each, beside the accepted rows) peaked at 14.5 MB.  Built
    # slice by slice, the peak is 8.3 MB, in the kernel: the 3.2 MB Haar
    # stack plus one chunk's working set.  11 MB leaves room for numpy
    # versions and fails if any whole-stack temporary of 3.2 MB comes back.
    def run():
        return thick_fraction_k2(haar_sample_k2(0, 100_000).matrices, 0.8)

    run()  # caches and imports
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20


def test_equidist_translate_working_set_holds_no_basis_stack():
    # Traced peak of one call at 100 000 samples, where only the translates
    # run.  Their (N, 2, 2) stack of flowed bases (3.2 MB) and the LLL
    # kernel's chunk peaked at 9.1 MB; the convergent batch needs the
    # samples, their translates and one chunk beside the output, 3.8 MB.
    # 6 MB fails if a whole (N, 2, 2) stack comes back, and at eps 0.8, where
    # the reference is exact too, if a sampled Haar stack (9.1 MB) does.
    for eps in (0.5, 0.8):
        args = ((0.0, 1.0), 0.0, 9.0, eps)
        equidist_test_k2(*args, samples=100_000, seed=0)  # caches and imports
        tracemalloc.start()
        try:
            equidist_test_k2(*args, samples=100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, eps


def test_region_counts_count_the_trichotomy():
    eps, margin = 0.5, 1e-3
    edges = [eps - margin, eps + margin, np.nextafter(eps - margin, 0.0),
             np.nextafter(eps + margin, 0.0), eps, np.nan, np.inf, -np.inf, 0.0, 2.0]
    lam = np.array(edges * 3 + list(np.random.default_rng(0).uniform(0.49, 0.51, 500)))
    region = list(trichotomy(lam, eps, margin))
    assert _region_counts(lam, eps, margin) == tuple(
        region.count(r) for r in (ThickRegion.OUTSIDE, ThickRegion.BOUNDARY, ThickRegion.INSIDE))
    # NaN and the band's lower edge are boundary; its upper edge is inside
    assert _region_counts(np.array([np.nan, eps - margin, eps]), eps, margin) == (0, 3, 0)
    below = np.nextafter(eps - margin, 0.0)
    assert _region_counts(np.array([below, eps + margin]), eps, margin) == (1, 0, 1)
    assert _region_counts(np.array([], dtype=float), eps, margin) == (0, 0, 0)


def test_equidist_discrepancy_small_at_long_times():
    r = equidist_test_k2((0.0, 1.0), 0.0, 9.0, 0.5, samples=100_000, seed=0)
    assert r.translate_estimate == pytest.approx(0.69403, abs=1e-4)
    # exact (Siegel): 1 - 3/pi^2, plus 5e-10 for the default margin band
    assert r.haar_estimate == pytest.approx(1.0 - 3.0 / math.pi ** 2, abs=1e-9)
    assert abs(r.discrepancy) <= 0.02
    rec = asdict(r)
    assert list(rec) == ["y0", "interval", "t", "eps", "translate_estimate",
                         "haar_estimate", "discrepancy", "translate_n",
                         "translate_boundary_n"]
    assert rec["t"] == (9.0, 9.0)


def test_equidist_improves_with_flow_time():
    early = equidist_test_k2((0.0, 1.0), 0.0, 2.0, 0.5, samples=100_000, seed=0)
    late = equidist_test_k2((0.0, 1.0), 0.0, 9.0, 0.5, samples=100_000, seed=0)
    assert abs(late.discrepancy) <= abs(early.discrepancy) + 0.01


@pytest.mark.parametrize("y0", [0.3, 0.7])
def test_equidist_base_point_irrelevant(y0):
    r = equidist_test_k2((0.0, 1.0), y0, 9.0, 0.5, samples=100_000, seed=0)
    assert abs(r.discrepancy) <= 0.02


def test_equidist_runs_near_the_precision_cap():
    # at flow time 12 one translate lattice has a float mu at +-1/2, whose
    # size-reduction steps alone must not keep the batch reduction sweeping
    r = equidist_test_k2((0.0, 1.0), 0.3, 12.0, 0.5, samples=100_000, seed=0)
    assert abs(r.discrepancy) <= 0.02


def test_equidist_validation():
    with pytest.raises(ParameterError):
        equidist_test_k2((1.0, 0.0), 0.0, 9.0, 0.5, samples=100, seed=0)
    with pytest.raises(ParameterError):
        equidist_test_k2((0.0, 1.0), 0.0, 9.0, 1.5, samples=100, seed=0)
    with pytest.raises(ParameterError):
        equidist_test_k2((0.0, 1.0), 0.0, -1.0, 0.5, samples=100, seed=0)


def test_equidist_refuses_translates_the_flow_resolves():
    # e^12 ulp(1e12 + 1) = 20: the flow sees the float grid of the
    # translates (this ran to translate 0, discrepancy -0.696); at y0 1e6,
    # 1.9e-5, it does not
    with pytest.raises(CapacityError, match="float spacing"):
        equidist_test_k2((0.0, 1.0), 1e12, 12.0, 0.5, samples=100, seed=0)
    r = equidist_test_k2((0.0, 1.0), 1e6, 12.0, 0.5, samples=100_000, seed=0)
    assert abs(r.discrepancy) <= 0.02
    # at T = 30 (skew 60), the skew cap refuses first, whatever the spacing
    with pytest.raises(CapacityError, match="skew"):
        equidist_test_k2((0.0, 1.0), 1e12, 30.0, 0.5, samples=100, seed=0)


@pytest.mark.parametrize("interval", [(0.0,), (0.0, 1.0, 2.0)])
def test_equidist_interval_takes_two_numbers(interval):
    with pytest.raises(ParameterError, match="interval takes two numbers"):
        equidist_test_k2(interval, 0.0, 9.0, 0.5, samples=100, seed=0)


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
    assert recs[0] == {"experiment": "no-drift-counterexample", "eps": 0.9,
                       "u": math.log(1.5), **asdict(rec.cases[0])}


def test_counterexample_labels_a_lambda1_within_the_margin_of_eps_false(monkeypatch):
    # every system in the window has lambda1 <= max(e^(-u/2), e^u / 2) (2-d
    # Minkowski on the projection that drops coordinate 1), so only a
    # critical projection puts lambda1 within the margin of an eps inside
    # it: y2 = 1/3 at e^s = 3 e^(-u/2) projects onto the lattice with basis
    # (0, c), (c, c/3) for c = e^(-u/2), and lambda1 = c.  At e^s = 6 e^(-u/2)
    # the projection holds (0, c/2), and lambda1 is far below eps.
    u = math.log(1.55)
    c = math.exp(-u / 2)
    eps = c + DEFAULT_MARGIN / 2
    assert 1.0 / eps ** 2 < math.exp(u) < 2.0 * eps
    monkeypatch.setattr(experiments, "random_forms",
                        lambda seed, m, n, scale: LinearFormSystem(np.array([[0.1], [1 / 3]])))
    rec = no_drift_counterexample(eps, u, [math.log(3.0) - u / 2, math.log(6.0) - u / 2],
                                  systems=1)
    edge, far = rec.cases
    assert abs(edge.lambda1 - c) <= 1e-15 and edge.lambda1 < eps
    assert edge.primitive_ok and edge.near_vector_q != 0
    assert far.lambda1 < eps - 0.3
    assert (edge.lambda1_below_eps, far.lambda1_below_eps, rec.all_pass) == (False, True, False)


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


def _near_vector_stacks():
    """(systems, s, u) groups, each scanned as one stack."""
    # system 161's least q at s = 11.5 is 100 840
    forms = [random_forms(index, 2, 1, scale=3.0) for index in [*range(25), 161]]
    # in the window at eps 0.9, on a dense s grid up to the precision cap:
    # e^u = 1.5, and e^u = 1.79 at the window's edge 2 eps
    for u in (math.log(1.5), 0.5822156):
        for s in (x / 2 for x in range(1, 24)):
            yield forms, s, u
    # outside the window: no q at all (0.9 e^0.1 < 1); q up to 6 but none
    # close enough in the second coordinate
    for s, u in ((0.05, 0.05), (2.0, 0.05)):
        yield [LinearFormSystem(np.array([[0.4], [0.29]]))], s, u


def test_near_vector_scan_matches_the_scalar_loop():
    eps = 0.9
    found = []
    for forms, s, u in _near_vector_stacks():
        t = WeightVector(2, 1, (u, s, s + u))
        Y = np.stack([f.Y for f in forms])
        expected = [near_vector_scan(flowed_basis(f, t), float(f.Y[0, 0]), float(f.Y[1, 0]),
                                     s, u, eps) for f in forms]
        q, dist = _near_vectors(flowed_bases(Y, t), Y, s, u, eps)
        assert list(zip(q.tolist(), dist.tolist())) == expected
        found.extend(e[0] for e in expected)
    assert found[-2:] == [0, 0]
    assert max(found) > 10 ** 5


@pytest.mark.parametrize("seed, s_list", [
    pytest.param(0, tuple(range(3, 12)), id="0"),
    pytest.param(5, tuple(range(3, 12)), id="5"),
    # a dense grid up to the precision cap: each reduction is warm started
    # from the one at the previous s, the loop starts every one cold
    pytest.param(0, tuple(x / 2 for x in range(1, 24)), id="dense-to-11.5"),
])
def test_counterexample_matches_the_per_case_loop(seed, s_list):
    u = math.log(1.5)
    rec = no_drift_counterexample(0.9, u, s_list, systems=30, seed=seed)
    cases, all_pass, max_lambda1 = counterexample_cases(0.9, u, s_list, 30, seed)
    assert [asdict(c) for c in rec.cases] == cases
    assert (rec.all_pass, rec.max_lambda1) == (all_pass, max_lambda1)
    head = {"experiment": "no-drift-counterexample", "eps": 0.9, "u": u}
    records = rec.to_records()
    assert records == [{**head, **asdict(c)} for c in rec.cases]
    # the key order is the report's byte order
    assert all(list(r) == list(head) + list(c) for r, c in zip(records, cases))


def test_counterexample_refuses_past_the_precision_cap():
    # flow skew max(u, s) + s + u: 24.4 at s = 12 passes the cap of 24,
    # 23.9 at s = 11.5 stays under it
    u = math.log(1.5)
    with pytest.raises(CapacityError, match="precision cap"):
        no_drift_counterexample(0.9, u, [3.0, 12.0], systems=1)
    assert no_drift_counterexample(0.9, u, [11.5], systems=2).all_pass


def test_counterexample_working_set_stays_small():
    # Traced peak of one call with 200 systems at s = 3..8: 0.4 MB; a
    # stacked scan of 200 systems x 4096 q would peak at 12.5 MB.  1.5 MB
    # leaves room for numpy versions and fails if such a scan comes back.
    args = (0.9, math.log(1.5), (3, 4, 5, 6, 7, 8))
    no_drift_counterexample(*args, systems=200)  # caches and imports
    tracemalloc.start()
    try:
        no_drift_counterexample(*args, systems=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


# ---------------------------------------------------------------------------
# singular profiles
# ---------------------------------------------------------------------------


def test_rational_profile_collapses():
    grid = tuple(0.25 * i for i in range(1, 81))
    series = singular_profile(LinearFormSystem.from_exact(((Fraction(1, 3),),)), grid)
    vals = np.array(series.values)
    # once e^{-s} q < 1 for the exact denominator q=3, the value is 3 e^{-s}
    tail = vals[np.array(grid) >= math.log(3.0) + 0.3]
    assert np.all(np.diff(tail) <= 1e-15)
    assert vals[-1] == pytest.approx(3.0 * math.exp(-20.0), rel=1e-9)


def test_liouville_profile_dips_deep():
    grid = tuple(0.25 * i for i in range(1, 121))
    series = singular_profile(liouville_system(5), grid)
    assert min(series.values) <= 0.01
    assert len(series.local_minima) >= 3
    # annotated minima really are strict interior dips
    for i in series.local_minima:
        assert series.values[i] < series.values[i - 1]
        assert series.values[i] < series.values[i + 1]


def test_golden_profile_stays_high():
    grid = tuple(0.25 * i for i in range(1, 81))
    series = singular_profile(golden_system(), grid)
    assert min(series.values) >= 0.6


def test_random_profile_reproducible():
    grid = tuple(0.5 * i for i in range(1, 21))
    a = singular_profile(random_forms(7, 1, 1), grid)
    b = singular_profile(random_forms(7, 1, 1), grid)
    assert a.values == b.values
    assert a.params == grid and len(a.values) == 20


def test_profile_validation():
    third = LinearFormSystem.from_exact(((Fraction(1, 3),),))
    with pytest.raises(ParameterError):
        singular_profile(third, (2.0, 1.0))
    with pytest.raises(ParameterError):
        singular_profile(third, ())
