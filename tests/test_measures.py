import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_lab import measures
from dirichlet_lab.config import parse_map
from dirichlet_lab.errors import CapacityError, EmptySupportError, ParameterError
from dirichlet_lab.measures import (
    Ball,
    CGoodEstimate,
    LebesgueBox,
    MapSpec,
    SelfSimilarIFS,
    cgood_empirical,
    drv_manifolds,
    epsilon0_registry,
    federer_empirical,
    nondivergence_veronese,
    nonplanar_test,
    sample,
)

LEB01 = LebesgueBox((0.0,), (1.0,))
CANTOR = SelfSimilarIFS.cantor_middle_thirds()
IFS2D = SelfSimilarIFS((0.5, 0.4, 0.3), ((0.0, 0.0), (0.5, 0.1), (0.2, 0.6)), (0.3, 0.3, 0.4))
UNIT = Ball.interval(0.0, 1.0)


def cantor_distance(x: float) -> float:
    """Distance from x to the middle-thirds Cantor set (greedy descent)."""
    lo, width = 0.0, 1.0
    for _ in range(26):
        width /= 3.0
        if x >= lo + 1.5 * width:
            lo += 2.0 * width
    return max(0.0, lo - x, x - (lo + width))


# -- specs and validation ----------------------------------------------------


def test_box_validation():
    with pytest.raises(ParameterError):
        LebesgueBox((0.0,), (0.0,))
    with pytest.raises(ParameterError):
        LebesgueBox((0.0, 1.0), (1.0,))
    # non-finite corners, and a width that overflows: sample once raised
    # numpy's OverflowError on these
    for lo, hi in (((0.0,), (math.inf,)), ((-math.inf,), (0.0,)), ((math.nan,), (1.0,)),
                   ((0.0, -math.inf), (1.0, math.inf)), ((-1e308,), (1e308,))):
        with pytest.raises(ParameterError):
            LebesgueBox(lo, hi)
    assert sample(LebesgueBox((-1e307,), (1e307,)), 0, 4).shape == (4, 1)


def test_ifs_validation():
    with pytest.raises(ParameterError):
        SelfSimilarIFS((1.2, 0.5), ((0.0,), (0.5,)), (0.5, 0.5))
    with pytest.raises(ParameterError):
        SelfSimilarIFS((0.5, 0.5), ((0.0,), (0.5,)), (0.7, 0.5))
    with pytest.raises(ParameterError):
        SelfSimilarIFS((0.5,), ((0.0,),), (1.0,))  # needs >= 2 maps
    # a NaN or inf translation once sampled NaN or inf points, so an in-ball
    # run drew 1000 x samples rows before giving up; a NaN probability
    # once sampled only the first map
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="translations must be finite"):
            SelfSimilarIFS((0.5, 0.5), ((bad,), (0.5,)), (0.5, 0.5))
        with pytest.raises(ParameterError, match="translations must be finite"):
            SelfSimilarIFS((0.5, 0.5), ((0.0, 0.0), (0.5, bad)), (0.5, 0.5))
    with pytest.raises(ParameterError, match="probabilities"):
        SelfSimilarIFS((0.5, 0.5), ((0.0,), (0.5,)), (math.nan, 0.5))


# -- sampling ----------------------------------------------------------------


def test_box_sampling_repeatable_and_in_range():
    a = sample(LEB01, seed=0, count=3)
    b = sample(LEB01, seed=0, count=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (3, 1)
    assert np.all((a >= 0.0) & (a <= 1.0))
    c = sample(LEB01, seed=1, count=3)
    assert not np.array_equal(a, c)


def test_worker_count_does_not_change_samples():
    serial = sample(LEB01, seed=7, count=10_000, workers=1)
    sharded = sample(LEB01, seed=7, count=10_000, workers=4)
    np.testing.assert_array_equal(serial, sharded)


def test_cantor_samples_lie_on_the_attractor():
    pts = sample(CANTOR, seed=5, count=4000, depth=20)[:, 0]
    assert max(cantor_distance(float(x)) for x in pts) <= 1e-9


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("measure", [LEB01, CANTOR, IFS2D], ids=["box", "cantor", "ifs2d"])
def test_window_equals_the_slice_of_a_longer_run(measure, workers):
    # windows that start and end on, just before, just after and across
    # the 4096-point block edges
    for start in (0, 1, 4095, 4096, 5000):
        for count in (1, 4096, 9000):
            window = sample(measure, 11, count, workers=workers, start=start)
            whole = sample(measure, 11, start + count, workers=workers)
            np.testing.assert_array_equal(window, whole[start:])
    with pytest.raises(ParameterError, match="start must be nonnegative"):
        sample(measure, 11, 3, start=-1)


def _untemper(y: int) -> int:
    """The MT19937 state word that tempers to the output word y: the four
    tempering steps undone in reverse order, a left or right shift-xor by
    iterating it to its fixed point."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def _generator_of(doubles) -> np.random.Generator:
    """A generator whose first random() doubles are ``doubles`` (at most 312
    multiples of 2**-53): MT19937 makes a double of two 32-bit words, the
    top 27 and 26 bits, and each word is a tempered state word."""
    words = []
    for u in doubles:
        k = int(u * 2 ** 53)
        words += [(k >> 26) << 5, (k & (2 ** 26 - 1)) << 6]
    key = [_untemper(w) for w in words] + [0] * (624 - len(words))
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(key, dtype=np.uint32), "pos": 0}}
    return np.random.Generator(bits)


# (ratios, translations, probs): 1 to 3 dimensions, 2 to 4 maps
IFS_SHAPES = [
    ((0.25, 0.3, 0.2), ((0.0,), (0.35,), (0.8,)), (0.2, 0.5, 0.3)),
    ((1 / 3, 1 / 3), ((0.0,), (2 / 3,)), (0.5, 0.5)),
    ((0.4, 0.3), ((0.0, 0.1), (0.6, 0.65)), (0.7, 0.3)),
    ((0.2, 0.3, 0.25, 0.1), ((0.0, 0.0), (0.65, 0.0), (0.0, 0.7), (0.8, 0.85)),
     (0.25, 0.5, 0.125, 0.125)),
    # cdf [0.5, 0.5, 1.0]: a tie, and the middle map is never drawn
    ((0.3, 0.2, 0.25), ((0.0, 0.0, 0.0), (0.4, 0.1, 0.5), (0.7, 0.7, 0.7)),
     (0.5, 1e-17, 0.5)),
    ((0.2, 0.2, 0.2, 0.2), ((0.0, 0.0, 0.0), (0.7, 0.0, 0.3), (0.0, 0.75, 0.1),
                            (0.5, 0.5, 0.8)), (0.1, 0.2, 0.3, 0.4)),
]


def test_ifs_digits_are_those_of_generator_choice(monkeypatch):
    # the digit draw must give the digits of gen.choice(len(ratios), size,
    # p=probs) and leave the generator in the same state, and the points of
    # those digits must be x -> r x + b from the deepest digit's fixed point
    draws = []

    def capture(draw, *args, **kwargs):
        draws.append(draw)
        return draw(np.random.default_rng(), 0)

    monkeypatch.setattr(measures._rng, "sample_batched", capture)
    for ratios, trans, probs in IFS_SHAPES:
        ifs = SelfSimilarIFS(ratios, trans, probs)
        r, b = np.array(ratios), np.array(trans)
        cdf = np.cumsum(probs) / np.cumsum(probs)[-1]  # normalised as gen.choice does
        # every cdf entry that random() can return, and the draws 2**-53 apart
        edges = [e + h for e in cdf[:-1] if e * 2 ** 53 == int(e * 2 ** 53)
                 for h in (-2.0 ** -53, 0.0, 2.0 ** -53)]
        for depth in (1, 2, 20):
            draws.clear()
            sample(ifs, 0, 10, depth=depth)
            c = 300 // depth
            gens = [(np.random.default_rng(seed), np.random.default_rng(seed))
                    for seed in range(50)]
            if edges:
                u = (edges * c * depth)[:c * depth]
                assert np.array_equal(_generator_of(u).random(c * depth), u)
                gens.append((_generator_of(u), _generator_of(u)))
            for gen, ref in gens:
                digits = ref.choice(len(ratios), size=(c, depth), p=probs)
                x = (b / (1.0 - r)[:, None])[digits[:, -1]]
                for level in range(depth - 2, -1, -1):
                    x = r[digits[:, level]][:, None] * x + b[digits[:, level]]
                got = draws[0](gen, c)
                np.testing.assert_array_equal(got, digits)
                assert gen.random() == ref.random()
                np.testing.assert_array_equal(measures._address_points(ifs, got), x)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("depth", [1, 2, 20])
@pytest.mark.parametrize("shape", IFS_SHAPES)
def test_within_returns_the_rows_of_the_cylinders_that_reach_the_ball(shape, depth, workers):
    # the candidate rows of a window from block 1 to partway into block 4 are
    # the unpruned rows whose top L digits (gen.choice's) _ball_reach keeps
    ratios, trans, probs = shape
    ifs = SelfSimilarIFS(ratios, trans, probs)
    ball = Ball(tuple(sample(ifs, 5, 1, depth=depth)[0]), 0.05)
    block = measures._rng.BLOCK
    start, count = block, 3 * block + 100
    lead, near = measures._ball_reach(ifs, ball, depth)
    keep = []
    for b in range(1, 5):
        gen = measures._rng.stream(5, b, tag=measures._TAG_IFS_ADDRESS)
        digits = gen.choice(len(ratios), size=(min(block, start + count - b * block), depth),
                            p=probs)
        keep.append(near[digits[:, :lead] @ len(ratios) ** np.arange(lead - 1, -1, -1)])
    keep = np.concatenate(keep)
    want = sample(ifs, 5, count, depth=depth, start=start)[keep]
    got = sample(ifs, 5, count, depth=depth, start=start, workers=workers, within=ball)
    assert 0 < got.shape[0] and got.tobytes() == want.tobytes()


def test_within_needs_a_window_that_starts_on_a_block():
    with pytest.raises(ParameterError, match="must start at a multiple of 4096"):
        sample(CANTOR, 0, 10, start=1, within=UNIT)


def test_within_returns_every_row_of_a_box():
    ball = Ball((0.25,), 0.01)
    block = measures._rng.BLOCK
    want = sample(LEB01, 3, 2 * block + 7, start=block)
    assert np.array_equal(sample(LEB01, 3, 2 * block + 7, start=block, within=ball), want)


def test_a_window_cut_into_passes_of_held_digits_keeps_its_rows(monkeypatch):
    # at depth MAX_IFS_DEPTH a window holds the digits of 8 blocks at a time,
    # as many bytes as one block's draw; the rows, with and without within=,
    # must not move when the cap cuts a window of 9 blocks and a bit
    block = measures._rng.BLOCK
    ball = Ball((0.7407407,), 0.01)
    whole = [sample(IFS2D, 4, 9 * block + 9, start=100),
             sample(CANTOR, 4, 9 * block + 9, start=block, within=ball)]
    monkeypatch.setattr(measures, "MAX_IFS_DEPTH", 20)
    cut = [sample(IFS2D, 4, 9 * block + 9, start=100),
           sample(CANTOR, 4, 9 * block + 9, start=block, within=ball)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, cut))


def test_ifs_depth_is_capped_before_any_draw():
    # one block's draw gen.random((rng.BLOCK, depth)) stays within 128 MB;
    # at depth 10^9 it would ask numpy for 29.8 TiB
    block = measures._rng.BLOCK
    assert measures.MAX_IFS_DEPTH * block * 8 == 128 * 2 ** 20
    pts = sample(CANTOR, seed=3, count=4, depth=measures.MAX_IFS_DEPTH)[:, 0]
    assert max(map(cantor_distance, pts)) <= 1e-12
    with pytest.raises(CapacityError):
        sample(CANTOR, seed=3, count=block, depth=10 ** 9)


def test_sample_rejects_bad_count():
    with pytest.raises(ParameterError):
        sample(LEB01, seed=0, count=0)


# -- map evaluation -----------------------------------------------------------


def test_veronese_map_values_and_degree():
    v3 = MapSpec.veronese(3)
    assert v3.degree == 3
    out = v3.evaluate(np.array([[0.5], [2.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.25, 0.125], [2.0, 4.0, 8.0]])


def test_map_values_that_overflow_are_refused():
    # x^2000 overflows beyond x = 1.43, and x^2000 - x^2000 is then NaN
    for f in ("f1=x1^2000", "f1=x1^2000-x1^2000"):
        mapping = parse_map("poly d=1 n=1 " + f)
        assert np.all(np.isfinite(mapping.evaluate(np.array([[0.5], [1.4]]))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                mapping.evaluate(np.array([[0.5], [1.5]]))


# -- (C, alpha)-good estimates ----------------------------------------------


def test_cgood_linear_function_has_unit_constant():
    est = cgood_empirical(lambda x: x, LEB01, UNIT, 1.0,
                          (0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
                          samples=100_000, seed=1)
    assert isinstance(est, CGoodEstimate)
    assert 0.9 <= est.C <= 1.1
    assert not est.degenerate
    # fractions of {x < eps} under Lebesgue on [0,1] are the eps themselves
    for eps, frac, hw in zip(est.eps_grid, est.fractions, est.half_widths):
        assert abs(frac - eps) <= max(3.0 * hw, 1e-3)


def test_cgood_shifted_quadratics_stay_below_four():
    # degree-2 polynomials should be good with alpha = 1/2 and modest C
    box = LebesgueBox((-1.0,), (1.0,))
    ball = Ball.interval(-1.0, 1.0)
    rng = np.random.default_rng(42)
    for trial in range(8):
        c = float(rng.uniform(0, 1))
        est = cgood_empirical(lambda x, c=c: x * x - c, box, ball, 0.5,
                              (0.01, 0.02, 0.05, 0.1, 0.2, 0.4),
                              samples=100_000, seed=trial)
        assert est.C <= 4.0


def test_cgood_constant_function():
    est = cgood_empirical(lambda x: np.ones_like(x), LEB01, UNIT, 1.0,
                          (0.5, 1.5), samples=2_000, seed=0)
    # eps below the constant contributes 0, above contributes (1/eps)^alpha < 1
    assert est.C == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_cgood_flags_identically_zero_function():
    est = cgood_empirical(lambda x: 0.0 * x, LEB01, UNIT, 1.0, (0.1,),
                          samples=1_000, seed=0)
    assert est.degenerate and est.C == math.inf


def test_cgood_rejects_bad_grid_and_alpha():
    with pytest.raises(ParameterError):
        cgood_empirical(lambda x: x, LEB01, UNIT, 0.0, (0.1,), samples=100)
    with pytest.raises(ParameterError):
        cgood_empirical(lambda x: x, LEB01, UNIT, 1.0, (0.2, 0.1), samples=100)
    with pytest.raises(ParameterError):
        cgood_empirical(lambda x: x, LEB01, UNIT, 1.0, (), samples=100)


def test_middle_third_gap_has_empty_support():
    gap = Ball.interval(0.4, 0.6)
    with pytest.raises(EmptySupportError):
        cgood_empirical(lambda x: x - 0.5, CANTOR, gap, 1.0, (0.1,),
                        samples=5_000, seed=0)


# -- Federer estimates -------------------------------------------------------


def test_federer_lebesgue_line_is_three():
    est = federer_empirical(LEB01, Ball((0.5,), 0.5), ball_count=200,
                            samples=200_000, seed=2)
    assert abs(est.ratio - 3.0) <= 0.1
    assert est.balls_used == 200


def test_federer_lebesgue_plane_is_nine():
    box = LebesgueBox((0.0, 0.0), (1.0, 1.0))
    est = federer_empirical(box, Ball((0.5, 0.5), 0.5), ball_count=200,
                            samples=200_000, seed=2)
    assert abs(est.ratio - 9.0) <= 0.45  # 3^d within 5%


def test_federer_cantor_measure_is_doubling_at_tested_scales():
    est = federer_empirical(CANTOR, Ball((0.5,), 0.5), ball_count=300,
                            samples=200_000, seed=3,
                            center_fraction=0.95, radius_range=(0.05, 1.0))
    assert est.ratio <= 30.0
    assert est.ratio >= 1.0


def test_federer_needs_support_near_region_center():
    with pytest.raises(EmptySupportError):
        federer_empirical(CANTOR, Ball((0.5,), 0.2), ball_count=10,
                          samples=5_000, seed=0, center_fraction=0.2)


# -- nonplanarity -------------------------------------------------------------


def test_veronese_two_is_nonplanar_on_lebesgue():
    res = nonplanar_test(MapSpec.veronese(2), LEB01, UNIT, samples=20_000, seed=4)
    assert res.nonplanar and res.sigma_min > 1e-3


def test_affine_image_is_planar():
    planar = MapSpec(1, 2, (((1, (1,)),), ((2, (1,)), (1, (0,)))))  # (x, 2x+1)
    res = nonplanar_test(planar, LEB01, UNIT, samples=20_000, seed=4)
    assert not res.nonplanar and res.sigma_min <= 1e-10


def test_veronese_three_is_nonplanar_on_cantor_support():
    res = nonplanar_test(MapSpec.veronese(3), CANTOR, UNIT, samples=20_000, seed=4)
    assert res.nonplanar


def test_nonplanar_verdict_survives_affine_reparametrization():
    # x -> 2x - 1 on the domain: (2x-1, (2x-1)^2) stays nonplanar,
    # the affine image stays planar
    v2_re = MapSpec(1, 2, (
        ((2, (1,)), (-1, (0,))),
        ((4, (2,)), (-4, (1,)), (1, (0,))),
    ))
    assert nonplanar_test(v2_re, LEB01, UNIT, samples=20_000, seed=4).nonplanar
    planar_re = MapSpec(1, 2, (
        ((2, (1,)), (-1, (0,))),
        ((4, (1,)), (-1, (0,))),
    ))
    assert not nonplanar_test(planar_re, LEB01, UNIT, samples=20_000, seed=4).nonplanar


def test_nonplanar_needs_enough_points():
    tiny = Ball.interval(0.4, 0.6)
    with pytest.raises(EmptySupportError):
        nonplanar_test(MapSpec.veronese(2), CANTOR, tiny, samples=2_000, seed=0)


def test_ball_and_map_must_live_in_the_measure_dimension():
    plane = LebesgueBox((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ParameterError,
                       match=r"^ball center has 2 coordinates, the measure lives in R\^1$"):
        cgood_empirical(lambda x: x, LEB01, Ball((0.5, 0.5), 0.5), 1.0, (0.1,), samples=10)
    with pytest.raises(ParameterError,
                       match=r"^ball center has 1 coordinates, the measure lives in R\^2$"):
        federer_empirical(plane, UNIT, ball_count=5, samples=10)
    with pytest.raises(ParameterError,
                       match=r"^map takes 1 variables, the measure lives in R\^2$"):
        nonplanar_test(MapSpec.veronese(2), plane, Ball((0.5, 0.5), 0.5), samples=10)


# -- explicit constants -------------------------------------------------------


def test_threshold_registry_values():
    reg = {name: value for name, (value, _) in epsilon0_registry().items()}
    assert reg["davenport_schmidt_curve"] == pytest.approx(4.0 ** (-1 / 3), rel=1e-12)
    assert reg["bugeaud_veronese"] == 0.125
    assert reg["khintchine_density"] == 0.5
    assert reg["nondivergence_veronese(n=2)"] == pytest.approx(1.0 / 2304.0, rel=1e-12)
    assert reg["drv_manifolds(n=2)"] == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-12)
    assert epsilon0_registry(1)["drv_manifolds(n=1)"][1] == "nondegenerate-manifold threshold"
    assert nondivergence_veronese(2) == pytest.approx(1.0 / (4 * 9 * 64), rel=1e-15)
    assert drv_manifolds(1) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_nondivergence_threshold_stops_at_the_least_normal_double():
    # 1 / (n^n (n + 1)^2 2^(n^2 + n)) is 5.5e-308 at n = 29; at n = 30 it
    # is below the least normal double
    assert nondivergence_veronese(29) == pytest.approx(5.4969188275166e-308, rel=1e-12)
    assert nondivergence_veronese(29) >= np.finfo(float).tiny
    for n in (30, 31, 32, 10 ** 9):
        with pytest.raises(ParameterError):
            nondivergence_veronese(n)
    with pytest.raises(ParameterError):
        epsilon0_registry(30)


def test_nondivergence_threshold_is_correctly_rounded():
    # rounding the integer denominator to a float before dividing put
    # n = 13, 21, 25 and 29 one ulp off
    for n in range(1, 30):
        denominator = n ** n * (n + 1) ** 2 * 2 ** (n * n + n)
        assert nondivergence_veronese(n) == float(Fraction(1, denominator))
