"""End-to-end numerical experiments on flowed lattices.

Four studies live here, all built from the lattice/flow/measure layers:

* escape-measure scans: how much of a curve's parameter set is pushed
  out of the eps-thick part by a diagonal flow, and how that fraction
  decays with eps (the power law behind the improvability results);
* an equidistribution discrepancy test at k = 2 against the exact invariant
  mass of the thin part at every eps (Siegel's formula, then a closed form),
  and a Haar sampler, on no run path, that tests compare with that mass;
* the m = 2, n = 1 construction showing that along weight rays with a
  frozen first coordinate EVERY system of forms is eps-improvable for
  suitable eps, so drifting away from the walls is genuinely needed
  (checked one s at a time on the stack of all systems);
* shortest-vector profiles along central rays of one-form systems
  (rational, golden ratio, near-Liouville), separating singular from
  badly approximable inputs.

Every routine is deterministic in its seed, fractions come with 95%
binomial half-widths, and samples within the decision margin of an
eps-threshold are excluded from fractions and counted separately.

At k = 2, the forms lattices of escape and decay (a one-output map) and
equidist's translates take the exact convergent lambda1 of
flows.shortest_forms_batch.  Escape and decay at k >= 3 take it from
lattice's batch kernel, each t of the list started from the transforms of
the t before, and the counterexample from
lattice.shortest_with_region lattice by lattice, each started from the
same system's previous transform.  Those float values lose about
2^-52 e^S at flow skew S; past flows.MAX_FLOW_SKEW all four experiments
refuse to run (CapacityError), at k = 2 too.  equidist also refuses a flow
time that resolves the float spacing of its translates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as _rng
from .errors import CapacityError, ParameterError
from .flows import (
    LinearFormSystem,
    WeightVector,
    _check_flow_skew,
    _convergents,
    flowed_bases,
    flowed_basis,  # not called here: the benchmark's flowed_basis probe looks it up here
    random_forms,
    shortest_forms_batch,
    trajectory_lambda1,
)
from .lattice import (
    DEFAULT_MARGIN,
    LatticeBasis,
    ThickRegion,
    _check_margin,
    _region_code,
    _shortest_batch,
    shortest_supnorm_k2_batch,
    shortest_with_region,
)
from .measures import (
    DEFAULT_IFS_DEPTH,
    Ball,
    MapSpec,
    MeasureSpec,
    _binomial_half_width,
    _check_ball,
    sample,
)

_TAG_HAAR = 47
_TAG_TRANSLATE = 53
# equidist refuses once e^T ulp(max |x + y0|) passes this; one-seed runs
# matched the invariant law at 1.6e-4 and missed it from 3.2e-4 on
_EQUIDIST_GRID_LIMIT = 2.0 ** -12
# the Haar y-proposal is truncated here; HaarSampleK2 records the lost mass
_HAAR_Y_MAX = 1.0e3
# rows per step of haar_sample_k2; any size gives the same bits
_HAAR_SLICE = _rng.BLOCK


def _region_counts(lam: np.ndarray, eps: float, margin: float) -> tuple:
    """(outside, boundary, inside) counts of the trichotomy of lam against eps."""
    return tuple(int(c) for c in np.bincount(_region_code(lam, eps, margin), minlength=3))


def _fraction_with_margin(lam: np.ndarray, eps: float, margin: float):
    """(fraction, half_width, boundary_count) for the event lam < eps."""
    hits, boundary, _ = _region_counts(lam, eps, margin)
    n_eff = lam.size - boundary
    if n_eff == 0:
        return 0.0, 0.0, boundary
    p = hits / n_eff
    return p, _binomial_half_width(p, n_eff), boundary


def _collect_in_ball(
    measure: MeasureSpec,
    ball: Ball,
    count: int,
    seed: int,
    depth: int,
    workers: int = 1,
) -> np.ndarray:
    """First ``count`` support samples inside the ball, in stream order.

    Each pass is a window of whole blocks, and ``sample(within=ball)``
    returns only the IFS rows whose cylinders can reach the ball, so
    Ball.contains tests only those.  A ball that no cylinder (at a depth
    within the cylinder table, no address's point), or no point of the
    box, can reach is refused before any draw (_check_ball).
    """
    _check_ball(measure, ball, count, depth)

    def window(start, size):
        return sample(measure, seed, size, depth=depth, workers=workers, start=start,
                      within=ball)

    return _rng.first_kept(window, ball.contains, count)


def _lambda1_rows_batch(
    rows: np.ndarray,
    t: WeightVector,
    cap: float,
    start=None,
) -> tuple:
    """Per-row shortest flowed-vector length for one-form systems, and the
    transforms that certified them.

    ``rows`` holds N systems of a single linear form (shape (N, n)); the
    returned lengths are exact minima among vectors shorter than ``cap``
    and the sentinel cap + 1 elsewhere.  At n = 1 they are the exact
    convergent values of shortest_forms_batch, as flows._forms_lambda1
    takes them for one system, and the transforms are None; at n >= 2,
    the values of shortest_supnorm_batch's kernel, which starts each row's
    reduction from ``start`` (k, k, N), typically the transforms this
    function returned for the same rows at a nearby t.
    """
    if t.m != 1:
        raise ParameterError("batch profile covers single-form systems only")
    _check_flow_skew(t)
    if t.n == 1 and np.shape(rows)[1:] == (1,):
        lam, T = shortest_forms_batch(rows[:, 0], *t.t), None
    else:
        lam, T = _shortest_batch(flowed_bases(rows[:, None], t), cap, start)
    return np.where(lam <= cap, lam, cap + 1.0), T


# ---------------------------------------------------------------------------
# escape measure and decay scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeCell:
    """One (t, eps) record of an escape-measure estimate."""

    experiment: str
    seed: int
    t: tuple
    floor_t: float
    norm_t: float
    eps: float
    fraction: float
    ci: float
    n: int
    boundary_n: int


def _escape_grid(mapping: MapSpec, measure: MeasureSpec, ball: Ball, t_list, eps_grid,
                 samples: int, depth: int, margin: float) -> tuple:
    """(eps grid as floats, scan cap), the one plan of escape and decay: once
    every eps is in (0, 1), samples >= 1, t_list is nonempty and repeats no
    t, with every t of m = 1, the map's n, and a flow skew within the cap,
    and _check_ball holds for the map and the ball."""
    if not t_list:
        raise ParameterError("need at least one weight vector")
    if len({t.t for t in t_list}) < len(t_list):
        raise ParameterError("a weight vector is given twice")
    grid = tuple(float(e) for e in eps_grid)
    if not grid or any(not (0.0 < e < 1.0) for e in grid):
        raise ParameterError("eps values must lie in (0, 1)")
    if samples < 1:
        raise ParameterError("samples must be >= 1, got %r" % (samples,))
    _check_margin(margin)
    cap = max(grid) + 64.0 * margin
    for t in t_list:
        if t.m != 1 or t.n != mapping.n:
            raise ParameterError("weights must have m=1, n=%d" % mapping.n)
        _check_flow_skew(t)
    _check_ball(measure, ball, samples, depth, mapping)
    return grid, cap


def _escape_cells(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    t_list,
    eps_grid,
    samples: int,
    seed: int,
    depth: int,
    margin: float,
    experiment: str,
    workers: int = 1,
) -> list:
    """EscapeCells per t of t_list, eps of eps_grid, from one sample pass.

    Each t's reduction starts every row from the transform that row ended
    with at the t before it; the first t starts every row from the
    transform of the kept point nearest the ball's center (at n >= 2; at
    n = 1 the exact convergents take no start).  A certified minimum up to
    cap does not depend on the start.  Along a ray the next lattice is the
    previous one times a diagonal matrix, and at one t the rows of a small
    ball have nearby lattices, so either transform is nearly reduced and
    saves most of the sweeps.  The start is a kept point's, not the
    center's own: a kept point's map values are finite and its lattice is
    one the batch reduces anyway, whatever the ball.
    """
    grid, cap = _escape_grid(mapping, measure, ball, t_list, eps_grid, samples, depth, margin)
    pts = _collect_in_ball(measure, ball, samples, seed, depth, workers=workers)
    rows = mapping.evaluate(pts)
    cells, T = [], None
    if mapping.n >= 2:
        # straight to the kernel: _lambda1_rows_batch calls are the benchmark's q-grid work
        nearest = np.argmin(np.sum((pts - np.array(ball.center)) ** 2, axis=1))
        _, T = _shortest_batch(flowed_bases(rows[nearest][None, None], t_list[0]), cap)
        T = np.broadcast_to(T, T.shape[:2] + (samples,))
    for t in t_list:
        lam, T = _lambda1_rows_batch(rows, t, cap, T)
        for eps in grid:
            frac, hw, boundary = _fraction_with_margin(lam, eps, margin)
            cells.append(EscapeCell(experiment, seed, t.t, t.floor, t.norm, eps, frac, hw,
                                    samples - boundary, boundary))
    return cells


def escape_table(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    t_list,
    eps_grid,
    samples: int = 20_000,
    seed: int = 0,
    depth: int = DEFAULT_IFS_DEPTH,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> tuple:
    """Escape fractions over every (t, eps) pair, one sample pass."""
    return tuple(_escape_cells(mapping, measure, ball, tuple(t_list), eps_grid,
                               samples, seed, depth, margin, "escape", workers))


@dataclass(frozen=True)
class DecayScan:
    """Power-law fit of escape fraction vs eps, with a t-uniformity table."""

    cells: tuple
    slopes: dict          # t tuple -> per-t fitted slope (or None)
    alpha: float | None   # pooled slope of log fraction vs log eps
    c2: float | None      # exp(pooled intercept)
    alpha_theory: float | None  # nondivergence exponent 1/(d l); None at degree 0
    eps_grid: tuple
    column_max: tuple     # per-eps max fraction over t
    column_span: tuple    # per-eps max - min fraction over t
    excluded_zero_cells: int


def nondiv_decay_scan(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    t_list,
    eps_grid,
    samples: int = 20_000,
    seed: int = 0,
    depth: int = DEFAULT_IFS_DEPTH,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> DecayScan:
    """Escape table over t_list x eps_grid plus a log-log decay fit.

    Cells with zero observed hits cannot enter the log fit; they are
    excluded and counted.  A fit over fewer than two distinct eps is None.
    The pooled fit reports (c2, alpha) with
    fraction <= c2 * eps^alpha as the empirical law; the per-eps column
    max and span quantify uniformity in t.

    alpha_theory is the exponent of Kleinbock-Margulis quantitative
    nondivergence for a polynomial map of degree l in d variables: the
    escape fraction is at most C' (eps/rho)^{1/(d l)}, so a fitted alpha
    below 1/(d l) contradicts the theorem the improvability results
    rest on.
    """
    t_list = tuple(t_list)
    cells = _escape_cells(mapping, measure, ball, t_list, eps_grid, samples,
                          seed, depth, margin, "decay-scan", workers)
    grid = tuple(float(e) for e in eps_grid)
    by_t = {t.t: [c for c in cells if c.t == t.t] for t in t_list}
    slopes = {}
    pooled_x = []
    pooled_y = []
    excluded = 0
    for key, tcells in by_t.items():
        xs = []
        ys = []
        for c in tcells:
            if c.fraction > 0.0:
                xs.append(math.log(c.eps))
                ys.append(math.log(c.fraction))
            else:
                excluded += 1
        if len(set(xs)) >= 2:
            slope, _ = np.polyfit(xs, ys, 1)
            slopes[key] = float(slope)
        else:
            slopes[key] = None
        pooled_x.extend(xs)
        pooled_y.extend(ys)
    if len(set(pooled_x)) >= 2:
        alpha, intercept = np.polyfit(pooled_x, pooled_y, 1)
        alpha = float(alpha)
        c2 = float(math.exp(intercept))
    else:
        alpha = None
        c2 = None
    col_max = []
    col_span = []
    for eps in grid:
        col = [c.fraction for c in cells if c.eps == eps]
        col_max.append(max(col))
        col_span.append(max(col) - min(col))
    degree = mapping.degree
    alpha_theory = 1.0 / (mapping.d * degree) if degree else None
    return DecayScan(tuple(cells), slopes, alpha, c2, alpha_theory, grid,
                     tuple(col_max), tuple(col_span), excluded)


# ---------------------------------------------------------------------------
# Haar sampling and equidistribution at k = 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaarSampleK2:
    """Unimodular 2x2 bases drawn from the invariant measure.

    The y-proposal is truncated at y_max; truncated_mass records the
    (tiny) invariant mass above the cutoff that can never be sampled.
    """

    matrices: np.ndarray
    y_max: float
    truncated_mass: float


def haar_sample_k2(seed: int, count: int) -> HaarSampleK2:
    """Sample unimodular lattice bases invariantly (k = 2 only).

    Works in the classical fundamental domain |x| <= 1/2, x^2 + y^2 >= 1
    with density dx dy / y^2: proposals draw x uniformly and y from the
    exact 1/y^2 marginal on [sqrt(3)/2, y_max], rejection keeps the
    points above the unit circle, and an independent uniform rotation
    restores the full invariant measure.  Acceptance is decided in
    stream order, so the output is reproducible.  The bases are built
    _HAAR_SLICE rows at a time, so the working set is one slice beside the
    output; each basis is its own 2x2 product, so the bits do not depend
    on the slice size.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    y0 = math.sqrt(3.0) / 2.0
    truncated = (1.0 / _HAAR_Y_MAX) / (math.pi / 3.0)

    def draw(gen, c):
        x = gen.uniform(-0.5, 0.5, size=c)
        u = gen.uniform(0.0, 1.0, size=c)
        theta = gen.uniform(0.0, 2.0 * math.pi, size=c)
        # inverse CDF of the 1/y^2 marginal on [y0, y_max]
        y = 1.0 / (1.0 / y0 - u * (1.0 / y0 - 1.0 / _HAAR_Y_MAX))
        return np.stack([x, y, theta], axis=1)

    def window(start, size):
        return _rng.sample_batched(draw, size, seed, tag=_TAG_HAAR, start=start)

    def above_circle(rows):
        x, y = rows[:, 0], rows[:, 1]
        return x * x + y * y >= 1.0

    x, y, theta = _rng.first_kept(window, above_circle, count).T
    # lattice of the modular point x + iy: periods (1, x + iy) / sqrt(y),
    # so the hyperbolic height is recoverable as 1 / |first column|^2
    bases = np.empty((count, 2, 2))
    for lo in range(0, count, _HAAR_SLICE):
        s = slice(lo, lo + _HAAR_SLICE)
        root, cos, sin = np.sqrt(y[s]), np.cos(theta[s]), np.sin(theta[s])
        upper = np.stack([1.0 / root, x[s] / root, np.zeros_like(root), root], axis=1)
        rot = np.stack([cos, -sin, sin, cos], axis=1)
        np.matmul(rot.reshape(-1, 2, 2), upper.reshape(-1, 2, 2), out=bases[s])
    return HaarSampleK2(bases, _HAAR_Y_MAX, truncated)


@dataclass(frozen=True)
class EquidistReport:
    """Flowed-translate vs invariant-measure membership test for K_eps;
    haar_estimate is exact (_invariant_thick_k2)."""

    y0: float
    interval: tuple
    t: tuple
    eps: float
    translate_estimate: float
    haar_estimate: float
    discrepancy: float
    translate_n: int
    translate_boundary_n: int


def thick_fraction_k2(
    matrices: np.ndarray,
    eps: float,
    margin: float = DEFAULT_MARGIN,
):
    """(fraction, n_eff, boundary_count) of lambda1 >= eps over a stack of 2x2 bases."""
    return _thick_fraction(shortest_supnorm_k2_batch(matrices), eps, margin)


def _thick_fraction(lam: np.ndarray, eps: float, margin: float):
    """(fraction, n_eff, boundary_count) for the event lam >= eps."""
    outside, boundary, inside = _region_counts(lam, eps, margin)
    n_eff = outside + inside
    if n_eff == 0:
        return 0.0, 0, boundary
    return inside / n_eff, n_eff, boundary


def _invariant_thin_k2(r: float) -> float:
    """mu(lambda1 < r) for the invariant probability on unimodular lattices:
    mu = E[N] - E[C(N, 2)] for N the +-pairs of primitive vectors in the open
    square S_r, since N <= 2 for r <= 1: two pairs span |det| < 2 r^2 <= 2, so
    form a basis, and no third pair v +- w fits (|ad - bc| < 1 once v = (a, b),
    w = (c, d) and v - w have entries in (-1, 1): ad, bc share a sign if ac,
    bd > 0, else |ad - bc| <= max(|b|, |d|) |a - c| < 1 or the same swapped).
    E[N] = 12 r^2 / pi^2 (Siegel).  E[C(N, 2)] is 0 while 2 r^2 <= 1, else
    I2 / (4 zeta(2)), I2 = int_{S_r} |{s : w0(v) + s v in S_r}| dv with
    w0(v) = (-v2, v1) / |v|^2; in polar form, with c = r^2, u = tan theta and
    v = c (1 + u), it is 12 J / pi^2 for J = int_1^{2c} (v - 1 - ln v) / (v - c)
    dv, in closed form below (Li2 in 60 terms y^k / k^2, y < 1/2, by
    math.fsum: sum compensates from Python 3.12).  r >= 1 gives 1 (Minkowski).
    """
    if 2 * Fraction(r) ** 2 <= 1:
        return 12.0 * r * r / math.pi ** 2
    if r >= 1:
        return 1.0
    c = r * r
    ln_c, L = math.log(c), math.log(c / (1.0 - c))
    li2 = math.fsum((1.0 - c) ** k / (k * k) for k in range(1, 61))
    j = (2 * c - 1) + (c - 1) * L - L * ln_c - math.pi ** 2 / 12 + 0.5 * ln_c ** 2 + li2
    return 12.0 * (c - j) / math.pi ** 2


def _invariant_thick_k2(eps: float, margin: float) -> float:
    """mu(lambda1 >= eps + margin | lambda1 outside the band eps +- margin),
    the band as thick_fraction_k2 leaves it out; 0 if it holds the whole law."""
    thick = 1.0 - _invariant_thin_k2(eps + margin)
    thin = _invariant_thin_k2(max(eps - margin, 0.0))
    return thick / (thick + thin) if thick + thin > 0 else 0.0


def _equidist_weights(interval, y0: float, flow_time: float, eps: float, samples: int,
                      margin: float) -> tuple:
    """((lo, hi), flow weights), once every equidist_test_k2 input is checked."""
    if len(interval) != 2:
        raise ParameterError("interval takes two numbers lo, hi")
    lo, hi = (float(x) for x in interval)
    if not lo < hi:
        raise ParameterError("interval needs lo < hi")
    if not all(map(math.isfinite, (lo, hi, y0, hi - lo, lo + y0, hi + y0))):
        raise ParameterError("interval, y0, hi - lo and the translates lo + y0, hi + y0 "
                             "must be finite")
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    if flow_time <= 0:
        raise ParameterError("flow_time must be positive")
    if samples < 1:
        raise ParameterError("samples must be >= 1, got %r" % (samples,))
    _check_margin(margin)
    t = WeightVector(1, 1, (float(flow_time), float(flow_time)))
    _check_flow_skew(t)
    # the translates are multiples of their float spacing h; once e^T h is
    # not small, the flow resolves that grid rather than the horocycle
    resolved = math.exp(flow_time) * math.ulp(max(abs(lo + y0), abs(hi + y0)))
    if resolved > _EQUIDIST_GRID_LIMIT:
        raise CapacityError(
            "flow time %g resolves the float spacing of the translates: e^T ulp(max |x + y0|) "
            "= %.3g exceeds %g" % (flow_time, resolved, _EQUIDIST_GRID_LIMIT))
    return (lo, hi), t


def equidist_test_k2(
    interval: tuple,
    y0: float,
    flow_time: float,
    eps: float,
    samples: int = 100_000,
    seed: int = 0,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> EquidistReport:
    """Does the flowed translate of a horocycle piece see K_eps with the
    invariant frequency?

    The translate estimate is the fraction of x uniform on the interval
    whose lattice g_t tau(x + y0) Z^2 lies in the eps-thick part, by the
    exact lambda1 of flows.shortest_forms_batch.  The reference is the
    exact invariant thick fraction outside the same margin band
    (_invariant_thick_k2).  A flow time at which e^T times the float spacing
    of the translates exceeds _EQUIDIST_GRID_LIMIT is refused
    (CapacityError): the flow would see the float grid, not the horocycle.
    """
    (lo, hi), t = _equidist_weights(interval, y0, flow_time, eps, samples, margin)

    def draw(gen, c):
        return gen.uniform(lo, hi, size=c)

    x = _rng.sample_batched(draw, samples, seed, tag=_TAG_TRANSLATE, workers=workers)
    translate_est, t_n, t_bn = _thick_fraction(shortest_forms_batch(x + y0, *t.t), eps,
                                               margin)
    haar_est = _invariant_thick_k2(eps, margin)
    return EquidistReport(float(y0), (lo, hi), t.t, eps, translate_est, haar_est,
                          translate_est - haar_est, t_n, t_bn)


# ---------------------------------------------------------------------------
# the frozen-coordinate construction (m = 2, n = 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleCase:
    system_index: int
    s: float
    primitive_ok: bool
    lambda1: float
    lambda1_below_eps: bool
    near_vector_distance: float
    near_vector_q: int


@dataclass(frozen=True)
class CounterexampleRecord:
    """Exhaustive verification that frozen-first-coordinate rays improve
    every two-form system at once."""

    eps: float
    u: float
    s_list: tuple
    systems: int
    cases: tuple
    all_pass: bool
    max_lambda1: float

    def to_records(self) -> list:
        # vars(c) holds the case's fields in declaration order, as asdict
        # would, without its recursive deep copy
        head = {"experiment": "no-drift-counterexample", "eps": self.eps, "u": self.u}
        return [{**head, **vars(c)} for c in self.cases]


def _counterexample_window(eps: float, u: float, s_list, systems: int) -> tuple:
    """(e^u, the weights (u, s, s + u) per s), once 0 < eps < 1,
    1/eps^2 < e^u < 2 eps, every s > 0, systems >= 1 and each weight's flow
    skew are checked."""
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    try:
        eu = math.exp(u)
    except OverflowError:
        eu = math.inf
    if not (1.0 / eps ** 2 < eu < 2.0 * eps):
        raise ParameterError(
            "empty parameter window: need 1/eps^2 < e^u < 2*eps, got "
            "1/eps^2=%g, e^u=%g, 2*eps=%g" % (1.0 / eps ** 2, eu, 2.0 * eps)
        )
    s_list = tuple(float(s) for s in s_list)
    if not s_list or any(s <= 0 for s in s_list):
        raise ParameterError("s values must be positive")
    if systems < 1:
        raise ParameterError("systems must be >= 1")
    weights = tuple(WeightVector(2, 1, (u, s, s + u)) for s in s_list)
    for t in weights:
        _check_flow_skew(t)
    return eu, weights


def _near_vectors(bases: np.ndarray, Y: np.ndarray, s: float, u: float,
                  eps: float) -> tuple:
    """(q, distance) arrays: per system of the stack Y (N, 2, 1) with flowed
    bases (N, 3, 3), the least q >= 1 with q e^-(s+u) < eps and
    e^s |y2 q - rint(y2 q)| < eps, and the sup-distance of its lattice vector
    (1 - rint(y1 q), -rint(y2 q), q) from e^u e_1; (0, inf) when no q
    passes or that distance is not below eps.

    In the window 1/eps^2 < e^u < 2 eps, Dirichlet's theorem for y2 alone
    gives such a q (eps^2 e^u > 1); the least one is a best approximation
    of the second kind, so a convergent denominator of y2 (Lagrange;
    Khinchin, Continued Fractions, section 6), and only those are tried,
    with a full scan's float test.  The first coordinate, off by at most
    e^u / 2 < eps, never rejects the winner.
    """
    grow2, shrink3 = math.exp(s), math.exp(-(s + u))
    found_q = np.zeros(len(Y), dtype=np.int64)
    for index, y2 in enumerate(Y[:, 1, 0].tolist()):
        for _, q in _convergents(Fraction(y2) % 1):
            if not q * shrink3 < eps:
                break
            if grow2 * abs(y2 * q - round(y2 * q)) < eps:
                found_q[index] = q
                break
    won = np.flatnonzero(found_q)
    q = found_q[won].astype(float)
    coeff = np.stack([1.0 - np.rint(Y[won, 0, 0] * q), -np.rint(Y[won, 1, 0] * q), q], axis=1)
    dist = np.max(np.abs(np.matmul(bases[won], coeff[..., None])[..., 0]
                         - np.array([math.exp(u), 0.0, 0.0])), axis=1)
    found_dist = np.full(len(Y), math.inf)
    found_dist[won[dist < eps]] = dist[dist < eps]
    found_q[won[~(dist < eps)]] = 0
    return found_q, found_dist


def no_drift_counterexample(
    eps: float,
    u: float,
    s_list,
    systems: int = 100,
    seed: int = 0,
) -> CounterexampleRecord:
    """Verify the mechanism that defeats unbounded-but-not-drifting rays.

    Weights t = (u, s, s+u) freeze the first expanding coordinate at u.
    The window 1/eps^2 < e^u < 2 eps (possible only when eps > 2^{-1/3})
    makes three things happen for EVERY 2x1 system Y and every s:

    (a) e^u e_1 is a primitive lattice vector, the first basis column,
    (b) its shortest vector is shorter than eps: lambda1_below_eps holds
        iff shortest_with_region places lambda1 OUTSIDE (lambda1 < eps -
        DEFAULT_MARGIN), so a BOUNDARY case reads false and fails all_pass,
    (c) a nonzero lattice vector sits within sup-distance eps of e^u e_1,
        by Dirichlet's theorem for y2 alone; _near_vectors finds its least
        q among the convergent denominators of y2 (Lagrange).

    (c) implies (b) — the near vector differs from e^u e_1 by a
    lattice vector of length < eps — and lambda1 <= that distance +
    DEFAULT_MARGIN is asserted on every case.

    The work runs one s at a time on the stack of all systems: (a) and (c)
    on the flowed_bases stack, (b) lattice by lattice, each basis of that
    stack through shortest_with_region, each started from the same
    system's previous transform (the first s starts cold; the next
    lattice is the previous one times diag(1, e^ds, e^-ds), so that
    transform is nearly reduced).  Cases are listed system by system, in
    s_list order within a system.  The flow skew 2s + u must stay within
    flows.MAX_FLOW_SKEW (s < about 11.8 in the window), or the run refuses
    (CapacityError): past it the float lambda1 drifts from the exact
    length of its own winner vector.
    """
    eu, weights = _counterexample_window(eps, u, s_list, systems)
    Y = np.stack([random_forms(seed + index, 2, 1, scale=3.0).Y for index in range(systems)])
    by_s, starts = [], [None] * systems
    for t in weights:
        s = t.t[1]
        bases = flowed_bases(Y, t)
        # (a), within 1e-9 e^u: np.exp and math.exp may differ by an ulp
        primitive = (np.max(np.abs(bases[:, :, 0] - (eu, 0.0, 0.0)), axis=1) <= 1e-9 * eu).tolist()
        lams = []
        for index, basis in enumerate(bases):
            sv, region = shortest_with_region(LatticeBasis(basis), eps=eps, start=starts[index])
            starts[index] = sv.transform
            lams.append((sv.length, region is ThickRegion.OUTSIDE))
        found_q, found_dist = (a.tolist() for a in _near_vectors(bases, Y, s, u, eps))
        by_s.append([CounterexampleCase(index, s, ok, lam, below, dist, q)
                     for index, (ok, (lam, below), dist, q)
                     in enumerate(zip(primitive, lams, found_dist, found_q))])
    cases = tuple(case for row in zip(*by_s) for case in row)
    for c in cases:
        if c.near_vector_q != 0 and c.lambda1 > c.near_vector_distance + DEFAULT_MARGIN:
            raise ParameterError(
                "internal inconsistency: lambda1 %g exceeds witness distance %g"
                % (c.lambda1, c.near_vector_distance)
            )
    all_pass = all(c.primitive_ok and c.lambda1_below_eps and c.near_vector_q != 0
                   for c in cases)
    return CounterexampleRecord(eps, u, tuple(t.t[1] for t in weights), systems, cases,
                                all_pass, max([0.0] + [c.lambda1 for c in cases]))


# ---------------------------------------------------------------------------
# shortest-vector profiles along the central ray
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileSeries:
    params: tuple
    values: tuple
    local_minima: tuple  # indices of strict interior local minima


def singular_profile(system: LinearFormSystem, t_grid) -> ProfileSeries:
    """Shortest-vector profile of a 1x1 system along the central ray.

    Interior strict local minima are annotated: dips are where the
    trajectory approaches the cusp and returns, the signature separating
    generic from very-well-approximable inputs.
    """
    grid = tuple(float(s) for s in t_grid)
    if not grid or any(s <= 0 for s in grid) or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise ParameterError("t_grid must be positive and strictly increasing")
    series = trajectory_lambda1(system, tuple(WeightVector(1, 1, (s, s)) for s in grid))
    values = tuple(lam for _, lam in series)
    minima = tuple(
        i for i in range(1, len(values) - 1)
        if values[i] < values[i - 1] and values[i] < values[i + 1]
    )
    return ProfileSeries(grid, values, minima)
