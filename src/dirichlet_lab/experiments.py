"""End-to-end numerical experiments on flowed lattices.

Four studies live here, all built from the lattice/flow/measure layers:

* escape-measure scans: how much of a curve's parameter set is pushed
  out of the eps-thick part by a diagonal flow, and how that fraction
  decays with eps (the power law behind the improvability results);
* a Haar sampler and equidistribution discrepancy test at k = 2, where
  the hyperbolic fundamental domain gives an exact volume oracle;
* the m = 2, n = 1 construction showing that along weight rays with a
  frozen first coordinate EVERY system of forms is eps-improvable for
  suitable eps, so drifting away from the walls is genuinely needed;
* shortest-vector profiles along central rays for named arithmetic
  inputs (rational, golden ratio, near-Liouville).

Every routine is deterministic in its seed, fractions come with 95%
binomial half-widths, and samples within the decision margin of an
eps-threshold are excluded from fractions and counted separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as _rng
from .errors import CapacityError, EmptySupportError, ParameterError
from .flows import (
    ExplicitList,
    LinearFormSystem,
    WeightVector,
    _iter_q_chunks,
    flow_exponents,
    flowed_basis,
    golden_system,
    liouville_system,
    random_forms,
    trajectory_lambda1,
)
from .lattice import (
    DEFAULT_MARGIN,
    ThickRegion,
    shortest_supnorm_k2_batch,
    shortest_with_region,
    trichotomy,
)
from .measures import _Z95, Ball, MapSpec, MeasureSpec, sample

_TAG_BALL_REJECT = 43
_TAG_HAAR = 47
_TAG_TRANSLATE = 53
_TAG_COUNTEREXAMPLE = 59

SCAN_BUDGET = 10_000_000
# target float count per (samples x q-chunk) slab, keeps slabs ~128 MB
_SLAB_ELEMS = 1 << 24


def _fraction_with_margin(lam: np.ndarray, eps: float, margin: float):
    """(fraction, half_width, hits, boundary_count) for the event lam < eps."""
    region = trichotomy(lam, eps, margin)
    hits = int(np.count_nonzero(region == ThickRegion.OUTSIDE))
    boundary = int(np.count_nonzero(region == ThickRegion.BOUNDARY))
    n_eff = lam.size - boundary
    if n_eff == 0:
        return 0.0, 0.0, 0, boundary
    p = hits / n_eff
    hw = _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / n_eff)
    return p, hw, hits, boundary


def _collect_in_ball(
    measure: MeasureSpec,
    ball: Ball,
    count: int,
    seed: int,
    depth: int,
    max_factor: int = 1000,
    workers: int = 1,
) -> np.ndarray:
    """First ``count`` support samples inside the ball, in stream order."""
    kept = []
    have = 0
    drawn = 0
    block = max(count, _rng.BLOCK)
    while have < count:
        if drawn >= max_factor * count:
            raise EmptySupportError(
                "ball caught %d of %d needed samples after %d draws"
                % (have, count, drawn)
            )
        # deterministic prefix property: extending a sample run never
        # changes the earlier points, so acceptance order is stable
        pts = sample(measure, seed, drawn + block, depth=depth, workers=workers)[drawn:]
        drawn += block
        mask = ball.contains(pts)
        taken = pts[mask]
        if taken.shape[0]:
            kept.append(taken)
            have += taken.shape[0]
    return np.concatenate(kept, axis=0)[:count]


def _lambda1_rows_batch(
    rows: np.ndarray,
    t: WeightVector,
    cap: float,
) -> np.ndarray:
    """Per-row shortest flowed-vector length for one-form systems.

    ``rows`` holds N systems of a single linear form (shape (N, n)); the
    returned lengths are exact minima among vectors shorter than ``cap``
    and the sentinel cap + 1 elsewhere.  The integer offset on the form
    coordinate is optimal (nearest integer), so only the q-grid is
    enumerated, in bounded-memory slabs.
    """
    if t.m != 1:
        raise ParameterError("batch profile covers single-form systems only")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != t.n:
        raise ParameterError("rows must have shape (N, %d)" % t.n)
    exps = flow_exponents(t)
    grow = math.exp(exps[0])
    shrink = np.exp(exps[1:])
    bounds = np.floor(cap / shrink).astype(np.int64)
    total = int(np.prod(2 * bounds + 1, dtype=np.float64))
    if total > SCAN_BUDGET:
        raise CapacityError(
            "q-grid needs %d points, over the scan budget of %d" % (total, SCAN_BUDGET)
        )
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    n_samples = rows.shape[0]
    chunk = max(1, _SLAB_ELEMS // max(n_samples, 1))
    best = np.full(n_samples, cap + 1.0)
    for _, Q in _iter_q_chunks(axes, chunk):
        qpart = np.max(shrink[None, :] * np.abs(Q), axis=1)
        valid = qpart > 0.0  # excludes exactly q = 0
        if not np.any(valid):
            continue
        Qv = Q[valid].astype(float)
        D = rows @ Qv.T
        frac = np.abs(D - np.rint(D))
        vals = np.maximum(grow * frac, qpart[valid][None, :])
        np.minimum(best, vals.min(axis=1), out=best)
    return np.where(best <= cap, best, cap + 1.0)


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

    def to_record(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "t": list(self.t),
            "floor_t": self.floor_t,
            "norm_t": self.norm_t,
            "eps": self.eps,
            "fraction": self.fraction,
            "ci": self.ci,
            "n": self.n,
            "boundary_n": self.boundary_n,
        }


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
    grid = tuple(float(e) for e in eps_grid)
    if not grid or any(not (0.0 < e < 1.0) for e in grid):
        raise ParameterError("eps values must lie in (0, 1)")
    pts = _collect_in_ball(measure, ball, samples, seed, depth, workers=workers)
    rows = mapping.evaluate(pts)
    cap = max(grid) + 64.0 * margin
    cells = []
    for t in t_list:
        if t.m != 1 or t.n != mapping.n:
            raise ParameterError("weights must have m=1, n=%d" % mapping.n)
        lam = _lambda1_rows_batch(rows, t, cap)
        for eps in grid:
            frac, hw, _, boundary = _fraction_with_margin(lam, eps, margin)
            cells.append(EscapeCell(
                experiment=experiment,
                seed=seed,
                t=t.t,
                floor_t=t.floor,
                norm_t=t.norm,
                eps=eps,
                fraction=frac,
                ci=hw,
                n=samples - boundary,
                boundary_n=boundary,
            ))
    return cells


def escape_measure(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    t: WeightVector,
    eps: float,
    samples: int = 20_000,
    seed: int = 0,
    depth: int = 20,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> EscapeCell:
    """Fraction of nu|_B pushed out of the eps-thick part by the t-flow.

    A sampled x escapes when the flowed lattice of the single-form
    system mapping(x) has a nonzero vector shorter than eps.
    """
    cells = _escape_cells(mapping, measure, ball, (t,), (eps,), samples,
                          seed, depth, margin, "escape", workers)
    return cells[0]


def escape_table(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    t_list,
    eps_grid,
    samples: int = 20_000,
    seed: int = 0,
    depth: int = 20,
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
    eps_grid: tuple
    column_max: tuple     # per-eps max fraction over t
    column_span: tuple    # per-eps max - min fraction over t
    excluded_zero_cells: int

    def to_records(self) -> list:
        return [c.to_record() for c in self.cells]


def nondiv_decay_scan(
    mapping: MapSpec,
    measure: MeasureSpec,
    ball: Ball,
    t_list,
    eps_grid,
    samples: int = 20_000,
    seed: int = 0,
    depth: int = 20,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> DecayScan:
    """Escape table over t_list x eps_grid plus a log-log decay fit.

    Cells with zero observed hits cannot enter the log fit; they are
    excluded and counted.  The pooled fit reports (c2, alpha) with
    fraction <= c2 * eps^alpha as the empirical law; the per-eps column
    max and span quantify uniformity in t.
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
    return DecayScan(tuple(cells), slopes, alpha, c2, grid,
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

    def __len__(self) -> int:
        return int(self.matrices.shape[0])


def haar_sample_k2(seed: int, count: int, y_max: float = 1.0e3) -> HaarSampleK2:
    """Sample unimodular lattice bases invariantly (k = 2 only).

    Works in the classical fundamental domain |x| <= 1/2, x^2 + y^2 >= 1
    with density dx dy / y^2: proposals draw x uniformly and y from the
    exact 1/y^2 marginal on [sqrt(3)/2, y_max], rejection keeps the
    points above the unit circle, and an independent uniform rotation
    restores the full invariant measure.  Acceptance is decided in
    block order, so the output is reproducible and worker-independent.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    if y_max <= 2.0:
        raise ParameterError("y_max must exceed 2")
    y0 = math.sqrt(3.0) / 2.0
    domain_volume = math.pi / 3.0
    truncated = (1.0 / y_max) / domain_volume
    xs = []
    have = 0
    block_index = 0
    while have < count:
        gen = _rng.stream(seed, block_index, tag=_TAG_HAAR)
        block_index += 1
        if block_index > 10_000:
            raise CapacityError("rejection sampling exceeded 10000 blocks")
        x = gen.uniform(-0.5, 0.5, size=_rng.BLOCK)
        u = gen.uniform(0.0, 1.0, size=_rng.BLOCK)
        theta = gen.uniform(0.0, 2.0 * math.pi, size=_rng.BLOCK)
        # inverse CDF of the 1/y^2 marginal on [y0, y_max]
        y = 1.0 / (1.0 / y0 - u * (1.0 / y0 - 1.0 / y_max))
        keep = x * x + y * y >= 1.0
        if np.any(keep):
            xs.append(np.stack([x[keep], y[keep], theta[keep]], axis=1))
            have += int(np.count_nonzero(keep))
    trip = np.concatenate(xs, axis=0)[:count]
    x, y, theta = trip[:, 0], trip[:, 1], trip[:, 2]
    # lattice of the modular point x + iy: periods (1, x + iy) / sqrt(y),
    # so the hyperbolic height is recoverable as 1 / |first column|^2
    root = np.sqrt(y)
    upper = np.zeros((count, 2, 2))
    upper[:, 0, 0] = 1.0 / root
    upper[:, 0, 1] = x / root
    upper[:, 1, 1] = root
    cos = np.cos(theta)
    sin = np.sin(theta)
    rot = np.zeros((count, 2, 2))
    rot[:, 0, 0] = cos
    rot[:, 0, 1] = -sin
    rot[:, 1, 0] = sin
    rot[:, 1, 1] = cos
    return HaarSampleK2(rot @ upper, float(y_max), truncated)


@dataclass(frozen=True)
class EquidistReport:
    """Flowed-translate vs invariant-measure membership test for K_eps."""

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

    def to_record(self) -> dict:
        return {
            "experiment": "equidist-k2",
            "y0": self.y0,
            "interval": list(self.interval),
            "t": list(self.t),
            "eps": self.eps,
            "translate_estimate": self.translate_estimate,
            "haar_estimate": self.haar_estimate,
            "discrepancy": self.discrepancy,
            "translate_n": self.translate_n,
            "translate_boundary_n": self.translate_boundary_n,
            "haar_n": self.haar_n,
            "haar_boundary_n": self.haar_boundary_n,
        }


def thick_fraction_k2(
    matrices: np.ndarray,
    eps: float,
    margin: float = DEFAULT_MARGIN,
):
    """Fraction of 2x2 bases whose lattice avoids vectors shorter than eps."""
    region = trichotomy(shortest_supnorm_k2_batch(matrices), eps, margin)
    boundary = int(np.count_nonzero(region == ThickRegion.BOUNDARY))
    n_eff = region.size - boundary
    if n_eff == 0:
        return 0.0, 0, boundary
    return int(np.count_nonzero(region == ThickRegion.INSIDE)) / n_eff, n_eff, boundary


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
    whose lattice g_t tau(x + y0) Z^2 lies in the eps-thick part; the
    reference comes from haar_sample_k2 with the same sample budget.
    """
    lo, hi = (float(interval[0]), float(interval[1]))
    if not lo < hi:
        raise ParameterError("interval needs lo < hi")
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    if flow_time <= 0:
        raise ParameterError("flow_time must be positive")
    t = WeightVector(1, 1, (float(flow_time), float(flow_time)))
    grow = math.exp(t.t[0])
    shrink = math.exp(-t.t[1])

    def draw(gen, c):
        return gen.uniform(lo, hi, size=c)

    x = _rng.sample_batched(draw, samples, seed, tag=_TAG_TRANSLATE, workers=workers)
    bases = np.zeros((samples, 2, 2))
    bases[:, 0, 0] = grow
    bases[:, 0, 1] = grow * (x + y0)
    bases[:, 1, 1] = shrink
    translate_est, t_n, t_bn = thick_fraction_k2(bases, eps, margin)
    haar = haar_sample_k2(seed, samples)
    haar_est, h_n, h_bn = thick_fraction_k2(haar.matrices, eps, margin)
    return EquidistReport(
        y0=float(y0),
        interval=(lo, hi),
        t=t.t,
        eps=eps,
        translate_estimate=translate_est,
        haar_estimate=haar_est,
        discrepancy=translate_est - haar_est,
        translate_n=t_n,
        translate_boundary_n=t_bn,
        haar_n=h_n,
        haar_boundary_n=h_bn,
    )


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
        return [
            {
                "experiment": "no-drift-counterexample",
                "eps": self.eps,
                "u": self.u,
                "system_index": c.system_index,
                "s": c.s,
                "primitive_ok": c.primitive_ok,
                "lambda1": c.lambda1,
                "lambda1_below_eps": c.lambda1_below_eps,
                "near_vector_distance": c.near_vector_distance,
                "near_vector_q": c.near_vector_q,
            }
            for c in self.cases
        ]


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
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    eu = math.exp(u)
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
    cases = []
    all_pass = True
    max_lambda1 = 0.0
    for index in range(systems):
        Y = random_forms(seed + index, 2, 1, scale=3.0)
        y1 = float(Y.Y[0, 0])
        y2 = float(Y.Y[1, 0])
        for s in s_list:
            t = WeightVector(2, 1, (u, s, s + u))
            basis = flowed_basis(Y, t)
            target = np.array([eu, 0.0, 0.0])
            coeff = np.linalg.solve(basis.columns, target)
            coeff_int = np.rint(coeff).astype(np.int64)
            residual = float(np.max(np.abs(basis.columns @ coeff_int - target)))
            primitive_ok = (
                residual <= 1e-9 * eu
                and math.gcd(math.gcd(int(coeff_int[0]), int(coeff_int[1])),
                             int(coeff_int[2])) == 1
            )
            sv, _ = shortest_with_region(basis, eps=eps, margin=1e-9)
            lam = sv.length
            max_lambda1 = max(max_lambda1, lam)
            # explicit near-vector: scan q for a point whose flowed image
            # sits within eps of e^u e_1 in the sup norm
            grow2 = math.exp(s)
            shrink3 = math.exp(-(s + u))
            found_dist = math.inf
            found_q = 0
            q = 1
            while q * shrink3 < eps:
                r2 = y2 * q
                a2 = -round(r2)
                if grow2 * abs(r2 + a2) < eps:
                    a1 = 1 - round(y1 * q)
                    v = basis.columns @ np.array([a1, a2, q], dtype=float)
                    dist = float(np.max(np.abs(v - target)))
                    if dist < eps:
                        found_dist = dist
                        found_q = q
                        break
                q += 1
            ok = (primitive_ok and lam < eps and found_q != 0)
            if found_q != 0 and lam > found_dist + 1e-9:
                raise ParameterError(
                    "internal inconsistency: lambda1 %g exceeds witness distance %g"
                    % (lam, found_dist)
                )
            all_pass = all_pass and ok
            cases.append(CounterexampleCase(
                system_index=index,
                s=s,
                primitive_ok=primitive_ok,
                lambda1=lam,
                lambda1_below_eps=lam < eps,
                near_vector_distance=found_dist,
                near_vector_q=found_q,
            ))
    return CounterexampleRecord(eps, u, s_list, systems, tuple(cases),
                                all_pass, max_lambda1)


# ---------------------------------------------------------------------------
# named shortest-vector profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiouvilleInput:
    terms: int = 5


@dataclass(frozen=True)
class GoldenRatioInput:
    digits: int = 60


@dataclass(frozen=True)
class RationalInput:
    p: int
    q: int


@dataclass(frozen=True)
class RandomInput:
    seed: int


ProfileInput = LiouvilleInput | GoldenRatioInput | RationalInput | RandomInput


def profile_system(spec: ProfileInput) -> tuple[str, LinearFormSystem]:
    if isinstance(spec, LiouvilleInput):
        return "liouville(%d)" % spec.terms, liouville_system(spec.terms)
    if isinstance(spec, GoldenRatioInput):
        return "golden_ratio", golden_system(spec.digits)
    if isinstance(spec, RationalInput):
        if spec.q <= 0:
            raise ParameterError("rational input needs q > 0")
        return ("rational(%d/%d)" % (spec.p, spec.q),
                LinearFormSystem.from_exact(((Fraction(spec.p, spec.q),),)))
    if isinstance(spec, RandomInput):
        return "random(seed=%d)" % spec.seed, random_forms(spec.seed, 1, 1)
    raise ParameterError("unknown profile input %r" % (spec,))


@dataclass(frozen=True)
class ProfileSeries:
    label: str
    params: tuple
    values: tuple
    local_minima: tuple  # indices of strict interior local minima

    def to_records(self) -> list:
        return [
            {
                "experiment": "singular-profile",
                "input": self.label,
                "param": p,
                "lambda1": v,
                "local_min": i in self.local_minima,
            }
            for i, (p, v) in enumerate(zip(self.params, self.values))
        ]


def singular_profile(spec: ProfileInput, t_grid) -> ProfileSeries:
    """Shortest-vector profile along the central ray for a named input.

    Interior strict local minima are annotated: dips are where the
    trajectory approaches the cusp and returns, the signature separating
    generic from very-well-approximable inputs.
    """
    grid = tuple(float(s) for s in t_grid)
    if not grid or any(s <= 0 for s in grid) or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise ParameterError("t_grid must be positive and strictly increasing")
    label, system = profile_system(spec)
    family = ExplicitList(tuple(WeightVector(1, 1, (s, s)) for s in grid))
    series = trajectory_lambda1(system, family)
    values = tuple(lam for _, lam in series)
    minima = tuple(
        i for i in range(1, len(values) - 1)
        if values[i] < values[i - 1] and values[i] < values[i + 1]
    )
    return ProfileSeries(label, grid, values, minima)
