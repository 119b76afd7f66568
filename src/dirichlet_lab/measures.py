"""Measure and polynomial-map specifications with empirical regularity testers.

The improvability results for points on curves and fractals need three
regularity inputs: a (C, alpha)-good bound for the relevant functions, a
Federer (doubling) constant for the measure, and nonplanarity of the map
on the support.  All three are quantified over every ball and every
sublevel threshold, which no finite computation can certify, so the
testers here are explicitly empirical: Monte Carlo estimates over finite
grids, reported with sample counts and binomial confidence half-widths,
never as proofs.

Sampling is deterministic in (spec, seed) and block-sharded through
:mod:`.rng`, so worker count never changes the stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as _rng
from .errors import CapacityError, EmptySupportError, ParameterError

_TAG_BOX = 31
_TAG_IFS_ADDRESS = 37
_TAG_BALL_GEOMETRY = 41

DEFAULT_IFS_DEPTH = 20
# most cylinders in sample's within= table: L is the largest level with
# maps^L <= this, so the table is a few kB beside a block of addresses
_CYLINDER_TABLE = 4096
# deepest IFS address whose one-block draw gen.random((rng.BLOCK, depth)) fits 128 MB
MAX_IFS_DEPTH = 128 * 2 ** 20 // (8 * _rng.BLOCK)
NONPLANAR_SVD_FLOOR = 1e-8
# largest domain dimension d of a map, and largest Veronese n: a declaration's
# text does not bound them, and each term stores d exponents
MAX_MAP_DIM = 64

# z-value for the reported ~95% binomial half-widths
_Z95 = 1.959963984540054


def _as_fraction(x) -> Fraction:
    """x exactly, refused unless its float rounding is finite."""
    if isinstance(x, np.integer):
        x = int(x)
    if not isinstance(x, (Fraction, int, float)):
        raise ParameterError("cannot convert %r to an exact rational" % (x,))
    try:
        value = Fraction(x)
        float(value)  # OverflowError beyond the float range
    except (ValueError, OverflowError):
        raise ParameterError("map coefficients must be finite and within the float "
                             "range") from None
    return value


# ---------------------------------------------------------------------------
# polynomial maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapSpec:
    """Polynomial map R^d -> R^n, one exponent/coefficient list per output.

    ``coords[j]`` is a tuple of (coefficient, exponent-vector) terms; the
    coefficients are kept as exact rationals, and ``evaluate`` rounds them
    to floats.
    """

    d: int
    n: int
    coords: tuple

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ParameterError("map needs d >= 1 and n >= 1")
        fixed = []
        for terms in self.coords:
            clean = []
            for coeff, expo in terms:
                expo = tuple(int(e) for e in expo)
                if len(expo) != self.d or any(e < 0 for e in expo):
                    raise ParameterError("bad exponent vector %r" % (expo,))
                clean.append((_as_fraction(coeff), expo))
            fixed.append(tuple(clean))
        if len(fixed) != self.n:
            raise ParameterError("need %d coordinate polynomials" % self.n)
        object.__setattr__(self, "coords", tuple(fixed))

    @classmethod
    def veronese(cls, n: int) -> "MapSpec":
        """x -> (x, x^2, ..., x^n) on the line."""
        if not 1 <= n <= MAX_MAP_DIM:
            raise ParameterError("veronese needs 1 <= n <= %d" % MAX_MAP_DIM)
        coords = tuple((((Fraction(1), (i,)),)) for i in range(1, n + 1))
        return cls(1, n, coords)

    @property
    def degree(self) -> int:
        deg = 0
        for terms in self.coords:
            for coeff, expo in terms:
                if coeff != 0:
                    deg = max(deg, sum(expo))
        return deg

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.d:
            raise ParameterError("points must have %d columns" % self.d)
        out = np.zeros((pts.shape[0], self.n))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, terms in enumerate(self.coords):
                acc = np.zeros(pts.shape[0])
                for coeff, expo in terms:
                    term = np.full(pts.shape[0], float(coeff))
                    for axis, e in enumerate(expo):
                        if e:
                            term = term * pts[:, axis] ** e
                    acc += term
                out[:, j] = acc
        if not np.all(np.isfinite(out)):
            raise ParameterError("map values are not finite at some sampled points")
        return out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LebesgueBox:
    """Normalized Lebesgue measure on a product of intervals."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        hi = tuple(float(v) for v in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if len(lo) != len(hi) or not lo:
            raise ParameterError("box corners must have equal positive length")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ParameterError("box must be nondegenerate (lower < upper)")
        if not all(math.isfinite(b - a) for a, b in zip(lo, hi)):
            raise ParameterError("box corners and widths must be finite")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return len(self.lower)


@dataclass(frozen=True, eq=False)
class SelfSimilarIFS:
    """Attractor measure of contracting similarities x -> r_i x + b_i."""

    ratios: tuple
    translations: tuple
    probs: tuple

    def __post_init__(self):
        ratios = tuple(float(r) for r in self.ratios)
        probs = tuple(float(p) for p in self.probs)
        trans = tuple(
            tuple(float(v) for v in np.atleast_1d(np.asarray(t, dtype=float)))
            for t in self.translations
        )
        if not (len(ratios) == len(trans) == len(probs)) or len(ratios) < 2:
            raise ParameterError("IFS needs >= 2 aligned (ratio, translation, prob) triples")
        if not all(0.0 < r < 1.0 for r in ratios):
            raise ParameterError("contraction ratios must lie in (0,1)")
        if not (all(p > 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-9):
            raise ParameterError("probabilities must be positive and sum to 1")
        dims = {len(t) for t in trans}
        if len(dims) != 1:
            raise ParameterError("translations must share one dimension")
        if not all(map(math.isfinite, sum(trans, ()))):
            raise ParameterError("translations must be finite")
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "translations", trans)

    @property
    def d(self) -> int:
        return len(self.translations[0])

    @classmethod
    def cantor_middle_thirds(cls) -> "SelfSimilarIFS":
        return cls((1 / 3, 1 / 3), ((0.0,), (2 / 3,)), (0.5, 0.5))


MeasureSpec = LebesgueBox | SelfSimilarIFS


def _check_sample(measure: MeasureSpec, count: int, depth: int, least: int = 1) -> None:
    """The count and IFS depth checks of ``sample``, for a caller that needs
    at least ``least`` points."""
    if count < least:
        raise ParameterError("count must be >= %d" % least)
    if isinstance(measure, SelfSimilarIFS):
        if depth < 1:
            raise ParameterError("depth must be >= 1")
        if depth > MAX_IFS_DEPTH:
            raise CapacityError("IFS depth %d exceeds the cap %d (one block of addresses "
                                "within 128 MB)" % (depth, MAX_IFS_DEPTH))


def sample(
    measure: MeasureSpec,
    seed: int,
    count: int,
    depth: int = DEFAULT_IFS_DEPTH,
    workers: int = 1,
    start: int = 0,
    within: Ball | None = None,
) -> np.ndarray:
    """Stream positions start .. start + count - 1, shape (count, measure.d).

    Fixed like ``rng.BLOCK``: an IFS block of c points is one call
    ``gen.random((c, depth))``, a digit counts the normalised cdf entries <= u
    (as ``gen.choice`` does), and x -> r x + b multiplies, then adds, from the
    deepest level up, starting at the deepest digit's fixed point so that an
    eventually-constant address lands exactly on the attractor.  Changing any
    of this changes every sampled IFS point.

    With ``within`` a ball, an IFS row whose top address digits name a
    cylinder that provably misses the ball (_ball_reach) is not evaluated
    and comes back NaN, which Ball.contains rejects; every other row is
    the same bits as without it.  Box rows are all evaluated.
    """
    _check_sample(measure, count, depth)
    if isinstance(measure, LebesgueBox):
        lo = np.array(measure.lower)
        hi = np.array(measure.upper)
        tag = _TAG_BOX

        def draw(gen, c):
            return gen.uniform(lo, hi, size=(c, lo.size))

    elif isinstance(measure, SelfSimilarIFS):
        ratios = np.array(measure.ratios)
        trans_t = np.array(measure.translations).T  # (d, maps)
        cdf = np.cumsum(measure.probs)
        cdf /= cdf[-1]  # as in gen.choice(len(ratios), size, p=probs): the same digits
        fixed_t = trans_t / (1.0 - ratios)
        zero = np.min_scalar_type(ratios.size - 1).type(0)  # uint8 digits up to 256 maps
        lead, near = (0, None) if within is None else _ball_reach(measure, within, depth)
        # the first digit most significant; float32, so that a BLAS product
        # sums the top-digit index, an integer below maps^L <= 2^24, exactly
        place = np.zeros(depth, dtype=np.float32)
        place[:lead] = ratios.size ** np.arange(lead - 1, -1, -1)
        tag = _TAG_IFS_ADDRESS

        def draw(gen, c):
            u = gen.random((c, depth))  # below cdf[-1] = 1, which never counts
            if near is not None:
                top = sum((u >= b) @ place for b in cdf[:-1])
                alive = np.flatnonzero(near.take(top.astype(np.intp)))
                u = u[alive]
            digits = sum((u >= b for b in cdf[:-1]), zero).T.copy()  # (depth, rows)
            x = fixed_t.take(digits[depth - 1], axis=1)  # (d, rows)
            for level in range(depth - 2, -1, -1):
                a = digits[level]
                x = ratios.take(a) * x + trans_t.take(a, axis=1)
            if near is None:
                return x.T
            out = np.full((c, x.shape[0]), np.nan)
            out[alive] = x.T
            return out

    else:
        raise ParameterError("unknown measure spec %r" % (measure,))
    return _rng.sample_batched(draw, count, seed, tag=tag, workers=workers, start=start)


@functools.lru_cache(maxsize=8)
def _ball_reach(measure: MeasureSpec, ball: Ball, depth: int) -> tuple:
    """(L, near): near[a] is False only if no point the sampler can draw
    with top L address digits a (read base maps, first digit most
    significant) passes ball.contains.  A box is one cylinder, L = 0.

    H is the box spanned by the maps' fixed points.  f_i(x) = fix_i +
    r_i (x - fix_i), 0 < r_i < 1, maps H into H, so the exact point of an
    address lies in the cylinder box f_a0 ... f_a(L-1)(H) of its top L
    digits when L <= depth; L is the largest such level with maps^L <=
    _CYLINDER_TABLE.  A cylinder is kept if its computed box comes within
    radius + delta of the center, with u = 2^-53, M the largest |coordinate|
    over H and the ball, and
        delta = 4 sqrt(d) (2 e + 5 (d + 2) u M),
    e = 2 u M (1 + 1/(1 - r_max)) for an IFS (the start point's two
    roundings, then at most 2 u M per Horner level, damped by r_max; the
    table's corners take the same operations) and e = 6 u M for a box
    (lo + (hi - lo) U); 5 (d + 2) u M covers the roundings of contains and
    of the table's own distance, and 4 is a safety factor.  The table is
    built once per (measure, ball, depth) objects.
    """
    u = 2.0 ** -53
    center = np.array(ball.center)
    if isinstance(measure, LebesgueBox):
        level, lo, hi = 0, np.array([measure.lower]), np.array([measure.upper])
        M, spread = float(max(np.abs(lo).max(), np.abs(hi).max())), 6.0
    else:
        ratios = np.array(measure.ratios)
        trans = np.array(measure.translations)  # (maps, d)
        fixed = trans / (1.0 - ratios)[:, None]
        level = 0
        while level < depth and ratios.size ** (level + 1) <= _CYLINDER_TABLE:
            level += 1
        lo, hi = fixed.min(axis=0)[None], fixed.max(axis=0)[None]
        M, spread = float(np.abs(fixed).max()), 2.0 * (1.0 + 1.0 / (1.0 - float(ratios.max())))
        for _ in range(level):  # the new first digit indexes the outer axis
            lo = (ratios[:, None, None] * lo + trans[:, None]).reshape(-1, center.size)
            hi = (ratios[:, None, None] * hi + trans[:, None]).reshape(-1, center.size)
    d = center.size
    M = max(M, float(np.abs(center).max()) + ball.radius)
    delta = 4.0 * math.sqrt(d) * (2.0 * spread + 5.0 * (d + 2)) * u * M
    gap = np.maximum(np.maximum(lo - center, center - hi), 0.0)
    return level, np.sqrt(np.sum(gap * gap, axis=1)) <= ball.radius + delta


# ---------------------------------------------------------------------------
# balls and empirical testers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball; in dimension one, an interval."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(np.asarray(self.center, dtype=float)))
        if not c or not all(map(math.isfinite, c)):
            raise ParameterError("ball center must be nonempty and finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ParameterError("ball radius must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Ball":
        if not lo < hi:
            raise ParameterError("interval needs lo < hi")
        return cls(((lo + hi) / 2.0,), (hi - lo) / 2.0)

    def contains(self, points) -> np.ndarray:
        """Mask of the rows of a (N, d) point array that lie in the ball."""
        diff = np.asarray(points, dtype=float) - np.array(self.center)
        return np.sqrt(np.sum(diff * diff, axis=1)) <= self.radius


def _check_dims(measure: MeasureSpec, ball: Ball, mapping: MapSpec | None = None) -> None:
    """The ball, and the map if given, live in the measure's dimension."""
    if len(ball.center) != measure.d:
        raise ParameterError("ball center has %d coordinates, the measure lives in R^%d"
                             % (len(ball.center), measure.d))
    if mapping is not None and mapping.d != measure.d:
        raise ParameterError("map takes %d variables, the measure lives in R^%d"
                             % (mapping.d, measure.d))


def _binomial_half_width(p: float, n: int) -> float:
    """~95% normal-approximation half-width of a proportion p out of n."""
    return _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class CGoodEstimate:
    """Smallest C consistent with the sublevel inequality on the tested grid."""

    C: float
    alpha: float
    sup_norm: float
    eps_grid: tuple
    fractions: tuple
    half_widths: tuple
    degenerate: bool


def _cgood_grid(alpha: float, eps_grid) -> tuple:
    """The eps grid as floats, once alpha is in (0, 1] and 0 < eps_1 < ... < inf."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    grid = tuple(float(e) for e in eps_grid)
    # each entry below the next, the last below inf; NaN fails every comparison
    if not grid or not all(0 < a < b for a, b in zip(grid, grid[1:] + (math.inf,))):
        raise ParameterError("eps_grid must be finite, positive and strictly increasing")
    return grid


def cgood_empirical(
    f,
    measure: MeasureSpec,
    ball: Ball,
    alpha: float,
    eps_grid,
    samples: int = 100_000,
    seed: int = 0,
    depth: int = DEFAULT_IFS_DEPTH,
    workers: int = 1,
) -> CGoodEstimate:
    """Estimate the smallest C with  nu(|f| < eps)/nu(B) <= C (eps/sup|f|)^alpha.

    For each grid eps the sublevel fraction is a Monte Carlo proportion;
    the returned C is the max over the grid of fraction * (sup/eps)^alpha.
    A 95% binomial half-width accompanies each fraction.  If f vanishes
    identically on the sampled support the inequality is vacuous and the
    result is flagged degenerate (C = inf).
    """
    grid = _cgood_grid(alpha, eps_grid)
    _check_dims(measure, ball)
    pts = sample(measure, seed, samples, depth=depth, workers=workers)
    inside = pts[ball.contains(pts)]
    count = inside.shape[0]
    if count == 0:
        raise EmptySupportError(
            "no support samples fell in the ball (center %s, radius %g, %d draws)"
            % (ball.center, ball.radius, samples)
        )
    args = inside[:, 0] if inside.shape[1] == 1 else inside
    vals = np.abs(np.asarray(f(args), dtype=float)).ravel()
    if vals.shape[0] != count:
        raise ParameterError("f must return one value per sample point")
    sup = float(vals.max())
    fracs = []
    widths = []
    for eps in grid:
        p = float(np.count_nonzero(vals < eps)) / count
        fracs.append(p)
        widths.append(_binomial_half_width(p, count))
    if sup == 0.0:
        return CGoodEstimate(math.inf, alpha, 0.0, grid, tuple(fracs),
                             tuple(widths), True)
    best = max(p * (sup / eps) ** alpha for p, eps in zip(fracs, grid))
    return CGoodEstimate(best, alpha, sup, grid, tuple(fracs), tuple(widths), False)


@dataclass(frozen=True)
class FedererEstimate:
    """Largest observed nu(3B)/nu(B) over the tested balls."""

    ratio: float
    half_width: float
    balls_used: int
    worst_center: tuple
    worst_radius: float


def _federer_radii(ball_count: int, radius_range, center_fraction: float) -> tuple:
    """(lo, hi) of radius_range, once ball_count >= 1, 0 < lo <= hi <= 1 and
    0 < center_fraction <= 1."""
    if ball_count < 1:
        raise ParameterError("ball_count must be >= 1")
    if not 0.0 < center_fraction <= 1.0:
        raise ParameterError("center_fraction must lie in (0, 1]")
    if len(radius_range) != 2:
        raise ParameterError("radius_range takes two numbers lo, hi")
    lo_r, hi_r = radius_range
    if not (0.0 < lo_r <= hi_r <= 1.0):
        raise ParameterError("radius_range must satisfy 0 < lo <= hi <= 1")
    return lo_r, hi_r


def federer_empirical(
    measure: MeasureSpec,
    region: Ball,
    ball_count: int = 200,
    samples: int = 200_000,
    seed: int = 0,
    depth: int = DEFAULT_IFS_DEPTH,
    center_fraction: float = 0.2,
    radius_range: tuple = (0.8, 1.0),
    workers: int = 1,
) -> FedererEstimate:
    """Empirical doubling constant: max nu(3B)/nu(B), 3B inside the region.

    Ball centers are support samples within center_fraction of the
    region's center (so every tested 3B fits); radii are drawn inside
    radius_range times the largest admissible radius.  The estimate is a
    lower bound for the true Federer constant: only finitely many balls
    are examined.
    """
    lo_r, hi_r = _federer_radii(ball_count, radius_range, center_fraction)
    _check_dims(measure, region)
    pts = sample(measure, seed, samples, depth=depth, workers=workers)
    center = np.array(region.center)
    dist = np.sqrt(np.sum((pts - center) ** 2, axis=1))
    eligible = np.flatnonzero(dist <= center_fraction * region.radius)
    if eligible.size == 0:
        raise EmptySupportError(
            "no support samples near the region center to serve as ball centers"
        )
    geom = _rng.stream(seed, 0, tag=_TAG_BALL_GEOMETRY)
    picks = eligible[geom.integers(0, eligible.size, size=ball_count)]
    scales = geom.uniform(lo_r, hi_r, size=ball_count)
    best = -math.inf
    best_hw = 0.0
    best_center = region.center
    best_radius = 0.0
    used = 0
    for idx, u in zip(picks, scales):
        c = pts[idx]
        max_r = (region.radius - float(dist[idx])) / 3.0
        r = u * max_r
        if r <= 0:
            continue
        d2 = np.sum((pts - c) ** 2, axis=1)
        n1 = int(np.count_nonzero(d2 <= r * r))
        n3 = int(np.count_nonzero(d2 <= 9.0 * r * r))
        if n1 == 0:
            continue
        used += 1
        ratio = n3 / n1
        if ratio > best:
            best = ratio
            # crude delta-method spread for the nested count ratio
            best_hw = _Z95 * ratio * math.sqrt(1.0 / n1 + 1.0 / max(n3, 1))
            best_center = tuple(float(v) for v in np.atleast_1d(c))
            best_radius = float(r)
    if used == 0:
        raise EmptySupportError("every tested ball missed the sampled support")
    return FedererEstimate(best, best_hw, used, best_center, best_radius)


@dataclass(frozen=True)
class NonplanarResult:
    nonplanar: bool
    sigma_min: float
    points_used: int


def nonplanar_test(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    samples: int = 20_000,
    seed: int = 0,
    depth: int = DEFAULT_IFS_DEPTH,
    workers: int = 1,
) -> NonplanarResult:
    """Rank test: is (1, f_1, ..., f_n) affinely independent on the support?

    Builds the (n+1)-column moment matrix at support samples inside the
    ball and checks its smallest singular value after normalizing each
    column to unit length (raw monomial columns are badly conditioned).
    """
    _check_dims(measure, ball, mapping)
    _check_sample(measure, samples, depth, least=mapping.n + 1)
    pts = sample(measure, seed, samples, depth=depth, workers=workers)
    mask = ball.contains(pts)
    inside = pts[mask]
    if inside.shape[0] < mapping.n + 1:
        raise EmptySupportError(
            "need at least %d support samples in the ball, got %d"
            % (mapping.n + 1, inside.shape[0])
        )
    Y = mapping.evaluate(inside)
    M = np.hstack([np.ones((Y.shape[0], 1)), Y])
    norms = np.sqrt(np.sum(M * M, axis=0))
    if np.any(norms == 0.0):
        return NonplanarResult(False, 0.0, int(inside.shape[0]))
    sigma = np.linalg.svd(M / norms, compute_uv=False)
    smin = float(sigma[-1])
    return NonplanarResult(smin > NONPLANAR_SVD_FLOOR, smin, int(inside.shape[0]))


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------


def nondivergence_veronese(n: int) -> float:
    """Improvability threshold for (x, ..., x^n) from the nondivergence route;
    ParameterError where it is below the least normal double (n >= 30)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    # from n = 32 on, 2^(n^2 + n) alone passes 2^1022: n^n is never formed
    denominator = n ** n * (n + 1) ** 2 * 2 ** (n * n + n) if n < 32 else math.inf
    if denominator > 2 ** 1022:
        raise ParameterError("nondivergence_veronese(n=%d) is below the least normal "
                             "double" % n)
    return 1 / denominator  # int by int: correctly rounded


def drv_manifolds(n: int) -> float:
    """Threshold 2^{-n/(n+1)} for nondegenerate manifolds."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return 2.0 ** (-n / (n + 1.0))


def epsilon0_registry(max_n: int = 4) -> dict:
    """Named explicit improvability thresholds: name -> (value, source)."""
    table = {
        "davenport_schmidt_curve": (4.0 ** (-1.0 / 3.0),
                                    "Davenport & Schmidt: planar-curve improvability"),
        "bugeaud_veronese": (1.0 / 8.0, "Bugeaud: Veronese-curve threshold"),
        "khintchine_density": (0.5, "Khintchine: density of improvable systems"),
    }
    for n in range(1, max_n + 1):
        table["nondivergence_veronese(n=%d)" % n] = (
            nondivergence_veronese(n), "quantitative nondivergence, Veronese curve")
        table["drv_manifolds(n=%d)" % n] = (drv_manifolds(n), "nondegenerate-manifold threshold")
    return table
