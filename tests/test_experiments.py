"""Tests for the experiment drivers in dirichlet_lab.experiments."""

import hashlib
import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from dirichlet_lab import experiments, lattice
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

from oracles import counterexample_cases, near_vector_scan

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
    gap = Ball((0.5,), 0.05)  # inside the removed middle third
    with pytest.raises(EmptySupportError,
                       match="^kept 0 of 100 needed samples after 102400 draws$"):
        _collect_in_ball(CANTOR, gap, 100, seed=0, depth=20)


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
    assert (r.haar_n, r.haar_boundary_n) == (0, 0)
    assert r.haar_estimate == pytest.approx(_siegel_thick(eps, margin), rel=1e-14)
    hw = _binomial_half_width(r.translate_estimate, r.translate_n)
    assert abs(r.discrepancy) <= 2.0 * hw


@pytest.mark.parametrize("eps,margin", [(0.1, DEFAULT_MARGIN), (0.5, DEFAULT_MARGIN),
                                        (0.7, DEFAULT_MARGIN), (math.sqrt(0.5), 0.0),
                                        (0.8, DEFAULT_MARGIN), (0.7, 0.01), (0.6, 0.2)])
def test_equidist_reference_is_exact_where_two_eps_squared_is_at_most_one(eps, margin):
    r = equidist_test_k2((0.0, 1.0), 0.0, 4.0, eps, samples=5000, seed=1, margin=margin)
    if 2 * Fraction(eps + margin) ** 2 <= 1:
        assert (r.haar_n, r.haar_boundary_n) == (0, 0)
        assert r.haar_estimate == pytest.approx(_siegel_thick(eps, margin), rel=1e-14)
    else:  # sqrt(0.5) rounds to the float just above 1/sqrt(2)
        h = haar_sample_k2(1, 5000)
        thick, n, boundary_n = thick_fraction_k2(h.matrices, eps, margin)
        assert r.haar_n == n > 0 and r.haar_boundary_n == boundary_n
        # the truncated mass m is thin: (1 - m) p_thick / (1 - (1 - m) p_band)
        m = h.truncated_mass
        exact = (1.0 - m) * (thick * n / 5000) / (1.0 - (1.0 - m) * boundary_n / 5000)
        assert r.haar_estimate == pytest.approx(exact, rel=1e-12)
        if boundary_n == 0:
            assert r.haar_estimate == (1.0 - m) * thick
    assert r.discrepancy == r.translate_estimate - r.haar_estimate


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
    args = ((0.0, 1.0), 0.0, 9.0, 0.8)  # above 1/sqrt(2): the Haar side is sampled
    whole = equidist_test_k2(*args, samples=2 * BLOCK + 7, seed=5)
    monkeypatch.setattr(experiments, "_HAAR_SLICE", 1000)
    monkeypatch.setattr(lattice, "_CHUNK", 1000)
    assert equidist_test_k2(*args, samples=2 * BLOCK + 7, seed=5) == whole


def test_equidist_working_set_is_about_one_slice():
    # Traced peak of one call at 100 000 samples.  Whole-stack Haar bases
    # (rot, upper and their product at 3.2 MB each, beside the accepted
    # rows) peaked at 14.5 MB.  Built slice by slice, the peak is 9.1 MB,
    # in the kernel: the 3.2 MB Haar stack plus one chunk's working set.
    # 11 MB leaves room for numpy versions and fails if any whole-stack
    # temporary of 3.2 MB comes back.  eps 0.8 lies above 1/sqrt(2), where
    # the Haar side is sampled.
    args = ((0.0, 1.0), 0.0, 9.0, 0.8)
    equidist_test_k2(*args, samples=100_000, seed=0)  # caches and imports
    tracemalloc.start()
    try:
        equidist_test_k2(*args, samples=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20


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
                         "translate_boundary_n", "haar_n", "haar_boundary_n"]
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
    u = math.log(1.5)
    forms = [random_forms(index, 2, 1, scale=3.0) for index in range(50)]
    for s in range(3, 13):
        yield forms, s, u
    # outside the window: no q at all (0.9 e^0.1 < 1); q up to 6 but none
    # close enough in the second coordinate; e^u > 2 eps, so the first
    # coordinate rejects some q that pass the second
    for y, s, u in (((0.4, 0.29), 0.05, 0.05), ((0.4, 0.29), 2.0, 0.05),
                    ((0.4, 0.21), 3.0, 1.2)):
        yield [LinearFormSystem(np.array([[y[0]], [y[1]]]))], s, u


def test_near_vector_scan_matches_the_scalar_loop(monkeypatch):
    eps = 0.9
    found = []
    for forms, s, u in _near_vector_stacks():
        t = WeightVector(2, 1, (u, s, s + u))
        Y = np.stack([f.Y for f in forms])
        bases = flowed_bases(Y, t)
        expected = [near_vector_scan(flowed_basis(f, t), float(f.Y[0, 0]), float(f.Y[1, 0]),
                                     s, u, eps) for f in forms]
        q, dist = _near_vectors(bases, Y, s, u, eps)
        assert list(zip(q.tolist(), dist.tolist())) == expected
        found.extend(e[0] for e in expected)
        # chunks of 7 and tiles of 3 put chunk and tile boundaries inside
        # the scan; the stack keeps the systems whose scan ends by q = 2000
        near = [i for i, e in enumerate(expected) if e[0] <= 2000]
        with monkeypatch.context() as m:
            m.setattr(experiments, "_NEAR_VECTOR_CHUNK", 7)
            m.setattr(experiments, "_NEAR_VECTOR_TILE", 3)
            q, dist = _near_vectors(bases[near], Y[near], s, u, eps)
        assert list(zip(q.tolist(), dist.tolist())) == [expected[i] for i in near]
    assert found[-3:-1] == [0, 0]
    q = np.arange(1, found[-1])
    assert np.any(math.exp(3.0) * np.abs(0.21 * q - np.rint(0.21 * q)) < eps)
    assert max(found) > experiments._NEAR_VECTOR_CHUNK


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


def test_counterexample_working_set_is_about_one_tile():
    # Traced peak of one call with 200 systems at s = 3..8, where each
    # scan is one chunk of 4096 q.  Tiles of 8 systems peak at 0.7 MB, the
    # per-case scan at 0.4 MB; one untiled 200 x 4096 scan peaks at
    # 12.5 MB.  1.5 MB leaves room for numpy versions and fails if the
    # scan's working set grows past a few tiles.
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
