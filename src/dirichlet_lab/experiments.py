"""End-to-end numerical experiments on flowed lattices.

Four studies live here, all built from the lattice/flow/measure layers:

* escape-measure scans: how much of a curve's parameter set is pushed
  out of the eps-thick part by a diagonal flow, and how that fraction
  decays with eps (the power law behind the improvability results);
* a Haar sampler and equidistribution discrepancy test at k = 2, where
  Siegel's mean value theorem gives the invariant mass of the thin part
  exactly for eps <= 1/sqrt(2);
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

Escape, decay and equidist take lambda1 from lattice.shortest_supnorm_batch,
and the counterexample from lattice.shortest_with_region lattice by lattice,
each started from the same system's previous transform.  Their float
values lose about 2^-52 e^S at flow skew S; past flows.MAX_FLOW_SKEW all
four refuse to run (CapacityError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as _rng
from .errors import ParameterError
from .flows import (
    LinearFormSystem,
    WeightVector,
    _check_flow_skew,
    flowed_bases,
    flowed_basis,  # not called here: the benchmark's flowed_basis probe looks it up here
    random_forms,
    trajectory_lambda1,
)
from .lattice import (
    DEFAULT_MARGIN,
    LatticeBasis,
    _check_margin,
    _region_code,
    shortest_supnorm_batch,
    shortest_supnorm_k2_batch,
    shortest_with_region,
)
from .measures import (
    DEFAULT_IFS_DEPTH,
    Ball,
    MapSpec,
    MeasureSpec,
    _binomial_half_width,
    _check_dims,
    sample,
)

_TAG_HAAR = 47
_TAG_TRANSLATE = 53
# the Haar y-proposal is truncated here; HaarSampleK2 records the lost mass
_HAAR_Y_MAX = 1.0e3
# rows per step of haar_sample_k2; any size gives the same bits
_HAAR_SLICE = _rng.BLOCK
# q values and systems per numpy step of the counterexample's near-vector
# scan; its working set is about one tile x chunk of doubles
_NEAR_VECTOR_CHUNK = 4096
_NEAR_VECTOR_TILE = 8


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
    """First ``count`` support samples inside the ball, in stream order."""

    def window(start, size):
        return sample(measure, seed, size, depth=depth, workers=workers, start=start)

    return _rng.first_kept(window, ball.contains, count)


def _lambda1_rows_batch(
    rows: np.ndarray,
    t: WeightVector,
    cap: float,
) -> np.ndarray:
    """Per-row shortest flowed-vector length for one-form systems.

    ``rows`` holds N systems of a single linear form (shape (N, n)); the
    returned lengths are exact minima among vectors shorter than ``cap``
    and the sentinel cap + 1 elsewhere.
    """
    if t.m != 1:
        raise ParameterError("batch profile covers single-form systems only")
    _check_flow_skew(t)
    lam = shortest_supnorm_batch(flowed_bases(rows[:, None], t), cap)
    return np.where(lam <= cap, lam, cap + 1.0)


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


def _escape_grid(eps_grid, samples: int, t_list, n: int, margin: float) -> tuple:
    """(eps grid as floats, scan cap), once every eps is in (0, 1), samples
    >= 1, and every t has m = 1, the map's n, and a flow skew within the cap."""
    grid = tuple(float(e) for e in eps_grid)
    if not grid or any(not (0.0 < e < 1.0) for e in grid):
        raise ParameterError("eps values must lie in (0, 1)")
    if samples < 1:
        raise ParameterError("samples must be >= 1, got %r" % (samples,))
    _check_margin(margin)
    cap = max(grid) + 64.0 * margin
    for t in t_list:
        if t.m != 1 or t.n != n:
            raise ParameterError("weights must have m=1, n=%d" % n)
        _check_flow_skew(t)
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
    grid, cap = _escape_grid(eps_grid, samples, t_list, mapping.n, margin)
    _check_dims(measure, ball, mapping)
    pts = _collect_in_ball(measure, ball, samples, seed, depth, workers=workers)
    rows = mapping.evaluate(pts)
    cells = []
    for t in t_list:
        lam = _lambda1_rows_batch(rows, t, cap)
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
    excluded and counted.  The pooled fit reports (c2, alpha) with
    fraction <= c2 * eps^alpha as the empirical law; the per-eps column
    max and span quantify uniformity in t.

    alpha_theory is the exponent of Kleinbock-Margulis quantitative
    nondivergence for a polynomial map of degree l in d variables: the
    escape fraction is at most C' (eps/rho)^{1/(d l)}, so a fitted alpha
    below 1/(d l) contradicts the theorem the improvability results
    rest on.
    """
    t_list = tuple(t_list)
    if not t_list:
        raise ParameterError("need at least one weight vector")
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
        if len(xs) >= 2:
            slope, _ = np.polyfit(xs, ys, 1)
            slopes[key] = float(slope)
        else:
            slopes[key] = None
        pooled_x.extend(xs)
        pooled_y.extend(ys)
    if len(pooled_x) >= 2:
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
    """Flowed-translate vs invariant-measure membership test for K_eps.

    haar_n = haar_boundary_n = 0 marks an exact haar_estimate
    (2 (eps + margin)^2 <= 1);
    otherwise they count the sampled Haar lattices, as translate_n and
    translate_boundary_n count the translates.
    """

    y0: float
    interval: tuple
    t: tuple
    eps: float
    translate_estimate: float
    haar_estimate: float
    discrepancy: float
    translate_n: int
    translate_boundary_n: int
    haar_n: int
    haar_boundary_n: int


def thick_fraction_k2(
    matrices: np.ndarray,
    eps: float,
    margin: float = DEFAULT_MARGIN,
):
    """Fraction of 2x2 bases whose lattice avoids vectors shorter than eps."""
    outside, boundary, inside = _region_counts(shortest_supnorm_k2_batch(matrices),
                                               eps, margin)
    n_eff = outside + inside
    if n_eff == 0:
        return 0.0, 0, boundary
    return inside / n_eff, n_eff, boundary


def _siegel_thick_k2(eps: float, margin: float):
    """Invariant thick fraction at k = 2 by the margin trichotomy, or None.

    Siegel's mean value theorem: a unimodular lattice has on average
    vol(S) / zeta(2) primitive vectors in S.  Two independent vectors in the
    open square of side 2 r span |det| < 2 r^2 <= 1, and two of a
    unimodular lattice span at least 1, so at most one +-pair lies there:
    mu(lambda1 < r) = 4 r^2 / (2 zeta(2)) = 12 r^2 / pi^2.  Like
    thick_fraction_k2, the fraction leaves out the boundary band
    eps - margin <= lambda1 < eps + margin; it is exact when
    2 (eps + margin)^2 <= 1 and None above.
    """
    hi, lo = eps + margin, max(eps - margin, 0.0)
    if not (hi < 1 and 2 * Fraction(hi) ** 2 <= 1):
        return None
    thick, thin = 1.0 - 12.0 * hi * hi / math.pi ** 2, 12.0 * lo * lo / math.pi ** 2
    return thick / (thick + thin)


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
    whose lattice g_t tau(x + y0) Z^2 lies in the eps-thick part.  The
    reference is the invariant thick fraction, outside the same margin
    band: exact for 2 (eps + margin)^2 <= 1 (Siegel; 1 - 12 eps^2 / pi^2
    at margin 0; haar_n = 0), else the thick fraction of
    haar_sample_k2 with the same sample budget, with the truncated_mass
    beyond its cutoff counted as thin.
    """
    (lo, hi), t = _equidist_weights(interval, y0, flow_time, eps, samples, margin)

    def draw(gen, c):
        return gen.uniform(lo, hi, size=c)

    x = _rng.sample_batched(draw, samples, seed, tag=_TAG_TRANSLATE, workers=workers)
    translate_est, t_n, t_bn = thick_fraction_k2(flowed_bases((x + y0)[:, None, None], t),
                                                 eps, margin)
    haar_est, h_n, h_bn = _siegel_thick_k2(eps, margin), 0, 0
    if haar_est is None:
        haar = haar_sample_k2(seed, samples)
        thick, h_n, h_bn = thick_fraction_k2(haar.matrices, eps, margin)
        # the mass m above y_max has lambda1 <= y_max^-1/2 (0.032): thin
        # and outside the boundary band unless eps - margin is below that
        m = haar.truncated_mass
        haar_est = (1.0 - m) * thick / (1.0 + m * h_bn / max(h_n, 1))
    return EquidistReport(float(y0), (lo, hi), t.t, eps, translate_est, haar_est,
                          translate_est - haar_est, t_n, t_bn, h_n, h_bn)


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
    bases (N, 3, 3), the first q >= 1 with q e^-(s+u) < eps whose flowed
    lattice vector sits within sup-distance eps of e^u e_1, or (0, inf).

    The scan takes _NEAR_VECTOR_TILE systems and _NEAR_VECTOR_CHUNK values
    of q at a time.  Numpy tests e^s |y2 q - rint(y2 q)| < eps on the whole
    tile; the (system, q) pairs that pass are checked in q order per system,
    each with its own 3x3 product, and a system leaves the tile once one
    passes.  So the first passing q and its distance do not depend on the
    tile or chunk size.
    """
    n = len(bases)
    y1, y2 = Y[:, 0, 0], Y[:, 1, 0]
    grow2 = math.exp(s)
    shrink3 = math.exp(-(s + u))
    target = np.array([math.exp(u), 0.0, 0.0])
    found_q = np.zeros(n, dtype=np.int64)
    found_dist = np.full(n, math.inf)
    for lo in range(0, n, _NEAR_VECTOR_TILE):
        active = np.arange(lo, min(lo + _NEAR_VECTOR_TILE, n))
        start = 1
        while active.size:
            qs = np.arange(start, start + _NEAR_VECTOR_CHUNK, dtype=float)
            qs = qs[qs * shrink3 < eps]
            off = np.multiply.outer(y2[active], qs)
            off -= np.rint(off)
            np.abs(off, out=off)
            off *= grow2
            rows, cols = np.nonzero(off < eps)
            system, q = active[rows], qs[cols]
            coeff = np.stack([1.0 - np.rint(y1[system] * q), -np.rint(y2[system] * q), q], axis=1)
            dist = np.max(np.abs(np.matmul(bases[system], coeff[..., None])[..., 0] - target),
                          axis=1)
            hits = np.flatnonzero(dist < eps)
            # candidates run system by system, q ascending: keep each first hit
            winners, first = np.unique(system[hits], return_index=True)
            found_q[winners] = q[hits[first]]
            found_dist[winners] = dist[hits[first]]
            if qs.size < _NEAR_VECTOR_CHUNK:
                break
            active = active[found_q[active] == 0]
            start += _NEAR_VECTOR_CHUNK
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

    (a) the flowed lattice contains e^u e_1 as a primitive vector,
    (b) its shortest vector is shorter than eps,
    (c) a nonzero lattice vector sits within sup-distance eps of
        +-e^u e_1 (found here by an explicit Dirichlet scan in q).

    (c) implies (b) — the scan's vector differs from +-e^u e_1 by a
    lattice vector of length < eps — and that implication is asserted
    on every case.

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
    target = np.array([eu, 0.0, 0.0])
    by_s, starts = [], [None] * systems
    for t in weights:
        s = t.t[1]
        bases = flowed_bases(Y, t)
        # (a): the rounded float coefficients of e^u e_1 rebuild it within
        # 1e-9 e^u and have gcd 1
        coeff = np.rint(np.linalg.solve(bases, target)).astype(np.int64)
        residual = np.max(np.abs(np.matmul(bases, coeff[..., None])[..., 0] - target), axis=1)
        primitive = ((residual <= 1e-9 * eu) & (np.gcd.reduce(coeff, axis=1) == 1)).tolist()
        lams = []
        for index, basis in enumerate(bases):
            sv, _ = shortest_with_region(LatticeBasis(basis), eps=eps, start=starts[index])
            starts[index] = sv.transform
            lams.append(sv.length)
        found_q, found_dist = (a.tolist() for a in _near_vectors(bases, Y, s, u, eps))
        by_s.append([CounterexampleCase(index, s, ok, lam, lam < eps, dist, q)
                     for index, (ok, lam, dist, q)
                     in enumerate(zip(primitive, lams, found_dist, found_q))])
    cases = tuple(case for row in zip(*by_s) for case in row)
    for c in cases:
        if c.near_vector_q != 0 and c.lambda1 > c.near_vector_distance + 1e-9:
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
