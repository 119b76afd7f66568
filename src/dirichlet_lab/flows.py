"""Linear-form systems, diagonal flows, and the two Dirichlet solvers.

A system of m linear forms in n variables is improvable at scale eps
along a family of flow times t when the strict system

    |Y_i q - p_i| < eps * exp(-t_i)        (i = 1..m)
    |q_j|         < eps * exp(t_{m+j})     (j = 1..n)

has a nonzero integer solution (p, q) for every large t in the family.
Two independent solvers decide one instance: direct integer
enumeration over the admissible q-box, and the lattice route through
the sup-norm shortest vector of the flowed lattice.  They must agree
away from the decision margin; that cross-check is the central test of
this module.

Weight vectors t live on the cone where every coordinate is positive
and the first m sum to the same value as the last n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParameterError
from .lattice import (
    DEFAULT_MARGIN,
    LatticeBasis,
    ThickRegion,
    shortest_vector_supnorm,
    trichotomy,
)
from . import rng as _rng

MAX_FORMS = 4
DIRECT_BUDGET = 100_000_000
BA_BUDGET = 10_000_000
FLOW_OVERFLOW_GUARD = 300.0

_TAG_FORMS = 23

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def liouville_sum(terms: int = 5) -> Fraction:
    """Partial sums of 10^(-j!), an extremely well approximable number.

    Exact rational: the deep denominators (already 10^24 at the fourth
    term) fall below double resolution, so a float carrier would erase
    exactly the structure these values exist to exhibit.
    """
    if terms < 1:
        raise ParameterError("terms must be >= 1")
    return sum(Fraction(1, 10 ** math.factorial(j)) for j in range(1, terms + 1))


def golden_ratio_exact(digits: int = 60) -> Fraction:
    """(sqrt(5) - 1) / 2 to the requested decimal precision."""
    if digits < 1:
        raise ParameterError("digits must be >= 1")
    scale = 10 ** digits
    return Fraction(math.isqrt(5 * scale * scale) - scale, 2 * scale)


# ---------------------------------------------------------------------------
# Weight vectors and linear-form systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Flow exponents (t_1..t_k), k = m + n, balanced between the two blocks."""

    m: int
    n: int
    t: tuple[float, ...]

    def __post_init__(self):
        if not (1 <= self.m <= MAX_FORMS and 1 <= self.n <= MAX_FORMS):
            raise ParameterError("m, n must be in [1, %d]" % MAX_FORMS)
        t = tuple(float(x) for x in self.t)
        if len(t) != self.m + self.n:
            raise ParameterError("t must have length m + n = %d" % (self.m + self.n))
        if not all(math.isfinite(x) and x > 0 for x in t):
            raise ParameterError("all weight entries must be positive and finite")
        left = math.fsum(t[: self.m])
        right = math.fsum(t[self.m:])
        if abs(left - right) > 1e-12 * max(1.0, left, right):
            raise ParameterError(
                "weight blocks must balance: sum(front)=%r, sum(back)=%r" % (left, right)
            )
        object.__setattr__(self, "t", t)

    @property
    def k(self) -> int:
        return self.m + self.n

    @property
    def floor(self) -> float:
        """min_i t_i: distance from the walls of the cone."""
        return min(self.t)

    @property
    def norm(self) -> float:
        """max_i t_i."""
        return max(self.t)

    def scaled(self, c: float) -> "WeightVector":
        if c <= 0:
            raise ParameterError("scale factor must be positive")
        return WeightVector(self.m, self.n, tuple(c * x for x in self.t))

    @classmethod
    def central(cls, m: int, n: int, scale: float) -> "WeightVector":
        """Point on the central ray: (scale/m,...,scale/m, scale/n,...,scale/n)."""
        if scale <= 0:
            raise ParameterError("scale must be positive")
        return cls(m, n, (scale / m,) * m + (scale / n,) * n)

    @classmethod
    def weighted(cls, r, s, scale: float) -> "WeightVector":
        """Point scale*(r_1,..,r_m, s_1,..,s_n) for unit-sum weights r, s."""
        r = tuple(float(x) for x in r)
        s = tuple(float(x) for x in s)
        _check_unit_weights(r, s)
        if scale <= 0:
            raise ParameterError("scale must be positive")
        return cls(len(r), len(s), tuple(x * scale for x in r + s))


def _check_unit_weights(r, s):
    if not r or not s:
        raise ParameterError("weight tuples must be nonempty")
    if any(x <= 0 for x in r) or any(x <= 0 for x in s):
        raise ParameterError("weights must be positive")
    if abs(math.fsum(r) - 1.0) > 1e-9 or abs(math.fsum(s) - 1.0) > 1e-9:
        raise ParameterError("weights must each sum to 1")


@dataclass(frozen=True, eq=False)
class LinearFormSystem:
    """m x n real matrix Y, row Y_i = coefficients of the i-th form.

    The float matrix is the working view.  When the intended entries
    are known rationals sharper than a double (very well approximable
    numbers lose their structure to rounding), from_exact() attaches
    them; exact entries are authoritative in residual arithmetic while
    the float view feeds the vectorized scans.
    """

    Y: np.ndarray
    exact: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if Y.ndim != 2:
            raise ParameterError("Y must be a matrix")
        m, n = Y.shape
        if not (1 <= m <= MAX_FORMS and 1 <= n <= MAX_FORMS):
            raise ParameterError("m, n must be in [1, %d]" % MAX_FORMS)
        if not np.all(np.isfinite(Y)):
            raise ParameterError("Y entries must be finite")
        Y = Y.copy()
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        if self.exact is not None:
            ex = tuple(tuple(Fraction(v) for v in row) for row in self.exact)
            if len(ex) != m or any(len(row) != n for row in ex):
                raise ParameterError("exact entries must match the matrix shape")
            if any(float(ex[i][j]) != Y[i, j] for i in range(m) for j in range(n)):
                raise ParameterError("float view must be the rounding of the exact entries")
            object.__setattr__(self, "exact", ex)

    @classmethod
    def from_exact(cls, rows) -> "LinearFormSystem":
        ex = tuple(tuple(Fraction(v) for v in row) for row in rows)
        Y = np.array([[float(v) for v in row] for row in ex])
        return cls(Y, exact=ex)

    def entry(self, i: int, j: int) -> Fraction:
        """The (i, j) entry as an exact rational."""
        if self.exact is not None:
            return self.exact[i][j]
        return Fraction(float(self.Y[i, j]))

    @property
    def m(self) -> int:
        return self.Y.shape[0]

    @property
    def n(self) -> int:
        return self.Y.shape[1]

    @property
    def k(self) -> int:
        return self.m + self.n


def random_forms(seed: int, m: int, n: int, scale: float = 3.0) -> LinearFormSystem:
    """Deterministic test-case generator: entries uniform in [-scale, scale]."""
    gen = _rng.stream(seed, 0, tag=_TAG_FORMS)
    return LinearFormSystem(gen.uniform(-scale, scale, size=(m, n)))


def liouville_system(terms: int = 5) -> LinearFormSystem:
    """The 1x1 system carrying the exact Liouville-type rational."""
    return LinearFormSystem.from_exact([[liouville_sum(terms)]])


def golden_system(digits: int = 60) -> LinearFormSystem:
    """The 1x1 system carrying a deep rational stand-in for the golden ratio.

    Its continued fraction agrees with the true quadratic's (all ones)
    until the denominators reach ~10^(digits/2), far past any flow time
    this package can represent, so profiles over practical windows are
    those of the irrational itself.
    """
    return LinearFormSystem.from_exact([[golden_ratio_exact(digits)]])


# ---------------------------------------------------------------------------
# The embedding and the flow
# ---------------------------------------------------------------------------


def forms_basis(Y: LinearFormSystem) -> LatticeBasis:
    """Upper block-triangular basis (I_m, Y; 0, I_n).

    Its lattice is exactly {(Yq - p, q) : p, q integer} with the sign
    convention p -> -p absorbed into the integer coefficients: the
    coefficient vector (a, q) maps to the point (Yq + a, q).
    """
    m, n = Y.m, Y.n
    M = np.eye(m + n)
    M[:m, m:] = Y.Y
    return LatticeBasis(M)


def flow_exponents(t: WeightVector) -> np.ndarray:
    """Signed exponents (t_1..t_m, -t_{m+1}..-t_k) with the overflow guard."""
    if t.norm > FLOW_OVERFLOW_GUARD:
        raise ParameterError(
            "weight entry %g exceeds overflow guard %g" % (t.norm, FLOW_OVERFLOW_GUARD)
        )
    return np.concatenate([np.array(t.t[: t.m]), -np.array(t.t[t.m:])])


def flow_matrix(t: WeightVector) -> np.ndarray:
    """diag(e^{t_1},..,e^{t_m}, e^{-t_{m+1}},..,e^{-t_k}); determinant 1."""
    return np.diag(np.exp(flow_exponents(t)))


def flowed_basis(Y: LinearFormSystem, t: WeightVector) -> LatticeBasis:
    """g_t applied to the forms basis, as row scaling (exact diagonal action)."""
    if (Y.m, Y.n) != (t.m, t.n):
        raise ParameterError("Y is %dx%d but t is for m=%d, n=%d" % (Y.m, Y.n, t.m, t.n))
    scale = np.exp(flow_exponents(t))
    return LatticeBasis(scale[:, None] * forms_basis(Y).columns)


# ---------------------------------------------------------------------------
# Witnesses and the direct solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletWitness:
    """Integer solution (p, q), q nonzero, of one Dirichlet system instance."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(x) for x in self.p)
        q = tuple(int(x) for x in self.q)
        if not any(q):
            raise ParameterError("witness q must be nonzero")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def checked(cls, Y: LinearFormSystem, t: WeightVector, eps: float,
                weak_q: bool, p, q) -> "DirichletWitness":
        """Construct and re-verify against the system it claims to solve."""
        w = cls(tuple(p), tuple(q))
        if not witness_holds(Y, t, eps, weak_q, w):
            raise ParameterError("witness %r does not solve the system" % (w,))
        return w


def _exact_residual(Y: LinearFormSystem, i: int, p_i: int, q) -> Fraction:
    """|Y_i . q - p_i| as an exact rational (doubles are exact rationals)."""
    r = Fraction(0)
    for j in range(Y.n):
        r += Y.entry(i, j) * q[j]
    return abs(r - p_i)


def witness_holds(Y: LinearFormSystem, t: WeightVector, eps: float,
                  weak_q: bool, w: DirichletWitness) -> bool:
    """Re-check the two inequality lines with exact residual arithmetic.

    Float dot products lose up to |Y.q| * eps_mach absolutely, which
    swamps the right-hand side eps * e^{-t_i} at larger flow times; the
    verifier therefore forms the residual as an exact rational first.
    """
    for i in range(Y.m):
        resid = _exact_residual(Y, i, w.p[i], w.q)
        if not float(resid) < eps * math.exp(-t.t[i]):
            return False
    for j, tj in enumerate(t.t[t.m:]):
        cap = eps * math.exp(tj)
        qa = abs(w.q[j])
        if weak_q:
            if not qa <= cap:
                return False
        elif not qa < cap:
            return False
    return True


def _exact_coeff_norm(Y: LinearFormSystem, t: WeightVector, a, q) -> float:
    """Flowed sup norm of the lattice vector with coefficients (a, q)."""
    lines = []
    for i in range(Y.m):
        lines.append(math.exp(t.t[i]) * float(_exact_residual(Y, i, -a[i], q)))
    for j in range(Y.n):
        lines.append(math.exp(-t.t[Y.m + j]) * abs(q[j]))
    return max(lines)


def _spiral_axis(bound: int) -> np.ndarray:
    """Candidate values 0, 1, -1, 2, -2, ... up to the admissible bound."""
    vals = [0]
    for v in range(1, bound + 1):
        vals.extend((v, -v))
    return np.array(vals, dtype=np.int64)


def _iter_q_chunks(axes: list[np.ndarray], chunk: int = 1 << 21):
    """Yield (offset, Q) slabs of the product grid in C order, bounded memory."""
    shape = tuple(a.size for a in axes)
    total = int(np.prod([a.size for a in axes], dtype=np.int64))
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total))
        multi = np.unravel_index(idx, shape)
        yield lo, np.stack([ax[mi] for ax, mi in zip(axes, multi)], axis=1)


def _q_axis_bound(eps: float, tj: float, weak_q: bool) -> int:
    cap = eps * math.exp(tj)
    b = math.floor(cap)
    if not weak_q and b == cap:
        b -= 1  # strict line excludes an exactly-integer cap
    return max(b, 0)


def dirichlet_solvable_direct(
    Y: LinearFormSystem,
    t: WeightVector,
    eps: float,
    weak_q: bool = False,
) -> DirichletWitness | None:
    """Exhaustive scan of the admissible q-box, smallest magnitudes first.

    Returns the first witness in lexicographic order over the
    per-coordinate magnitude spiral (0, 1, -1, 2, -2, ...); with the
    zero form this yields q = (0,..,0,1)-style smallest witnesses.
    p is the coordinatewise nearest integer to Yq (half-ties to even).
    """
    if (Y.m, Y.n) != (t.m, t.n):
        raise ParameterError("Y is %dx%d but t is for m=%d, n=%d" % (Y.m, Y.n, t.m, t.n))
    if not (0 < eps <= 1):
        raise ParameterError("eps must satisfy 0 < eps <= 1, got %r" % (eps,))
    flow_exponents(t)  # overflow guard
    bounds = [_q_axis_bound(eps, tj, weak_q) for tj in t.t[t.m:]]
    total = 1
    for b in bounds:
        total *= 2 * b + 1
    if total > DIRECT_BUDGET:
        raise CapacityError(
            "direct enumeration needs %d candidates, budget is %d" % (total, DIRECT_BUDGET)
        )
    if all(b == 0 for b in bounds):
        return None

    axes = [_spiral_axis(b) for b in bounds]
    form_rhs = eps * np.exp(-np.array(t.t[: t.m]))
    ymax = float(np.max(np.abs(Y.Y))) if Y.Y.size else 0.0
    for offset, Q in _iter_q_chunks(axes):
        if offset == 0:
            Q = Q[1:]  # drop the all-zero combination (always first)
        if Q.shape[0] == 0:
            continue
        R = Q.astype(float) @ Y.Y.T  # (candidates, m)
        P = np.rint(R)  # nearest integers, half to even
        # float prefilter with slack covering dot-product rounding;
        # survivors are confirmed with exact residuals, in order
        slack = 64.0 * 2.3e-16 * (1.0 + ymax * Y.n * float(np.max(np.abs(Q))))
        near = np.all(np.abs(R - P) < form_rhs[None, :] + slack, axis=1)
        for idx in np.nonzero(near)[0]:
            w = DirichletWitness(
                tuple(int(x) for x in P[idx]),
                tuple(int(x) for x in Q[idx]),
            )
            if witness_holds(Y, t, eps, weak_q, w):
                return w
    return None


# ---------------------------------------------------------------------------
# The lattice solver
# ---------------------------------------------------------------------------


class Solvability(enum.Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    BOUNDARY = "boundary"


def shortest_forms_vector(y: float | Fraction, t_left: float, t_right: float
                          ) -> tuple[float, tuple[int, int] | None]:
    """Exact shortest data for the k=2 forms lattice via convergents.

    Sup-norm candidates are max(e^{t} |qy - p|, e^{-t'} |q|).  For fixed
    q the best p is forced, and among q' <= q the convergent
    denominators of y minimize the residual (best approximation of the
    second kind), so the overall minimizer is a convergent or the pure
    integer column (q=0, norm e^{t}).  Exact rational residuals keep
    the value reliable at flow times where double cancellation in a
    basis-times-coefficients product would swamp any margin.

    Returns (lambda1, (p, q) of the minimizer), q-part None when the
    q=0 column wins.
    """
    grow = math.exp(t_left)
    shrink = math.exp(-t_right)
    yf = y if isinstance(y, Fraction) else Fraction(float(y))
    shift = math.floor(yf)
    x = yf - shift                      # in [0, 1)
    best = grow                         # the (1, 0) column
    best_pq: tuple[int, int] | None = None
    num, den = x.numerator, x.denominator
    h_prev, k_prev, h, k = 0, 1, 1, 0   # two virtual convergents before a0
    while den != 0:
        a_dig = num // den
        num, den = den, num - a_dig * den
        h_prev, k_prev, h, k = h, k, a_dig * h + h_prev, a_dig * k + k_prev
        d = abs(x * k - h)
        f = max(grow * float(d), shrink * float(k))
        if f < best:
            best = f
            best_pq = (shift * k + h, k)
        if d == 0 or shrink * float(k) >= best:
            break
    return best, best_pq


def _lattice_status(
    Y: LinearFormSystem,
    t: WeightVector,
    eps: float,
    margin: float,
) -> tuple[Solvability, DirichletWitness | None]:
    if Y.k == 2:
        flow_exponents(t)  # overflow guard
        lam, pq = shortest_forms_vector(Y.entry(0, 0), t.t[0], t.t[1])
        # pq is None only for the q=0 column, whose norm e^t exceeds 1 > eps
        p, q = ((pq[0],), (pq[1],)) if pq else ((), ())
    else:
        sv = shortest_vector_supnorm(flowed_basis(Y, t))
        # re-anchor the winner's norm in exact arithmetic: at larger flow
        # times the basis-times-coefficients product cancels catastrophically
        a, q = sv.coeffs[: Y.m], sv.coeffs[Y.m:]
        lam = _exact_coeff_norm(Y, t, a, q)
        p = tuple(-x for x in a)
    region = trichotomy(lam, eps, margin)
    if region is ThickRegion.INSIDE:
        return Solvability.UNSOLVABLE, None
    if region is ThickRegion.BOUNDARY:
        return Solvability.BOUNDARY, None
    return Solvability.SOLVABLE, DirichletWitness.checked(Y, t, eps, weak_q=False, p=p, q=q)


def dirichlet_solvable_lattice(
    Y: LinearFormSystem,
    t: WeightVector,
    eps: float,
    margin: float = DEFAULT_MARGIN,
) -> Solvability:
    """Decide the strict system through the flowed lattice.

    Solvable iff the lattice g_t (forms basis) falls outside the
    eps-thick part; must agree with the direct solver away from the
    margin band.
    """
    if not (0 < eps < 1):
        raise ParameterError("lattice route requires 0 < eps < 1, got %r" % (eps,))
    status, _ = _lattice_status(Y, t, eps, margin)
    return status


# ---------------------------------------------------------------------------
# Trajectory families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralRay:
    """Equal-weight ray, parameters start, start+step, ... (count points)."""

    step: float
    count: int
    start: float | None = None

    def __post_init__(self):
        if self.step <= 0 or self.count < 1:
            raise ParameterError("need step > 0 and count >= 1")
        if self.start is not None and self.start <= 0:
            raise ParameterError("start must be positive when given")

    def weights(self, m: int, n: int) -> tuple[WeightVector, ...]:
        start = self.step if self.start is None else self.start
        return tuple(
            WeightVector.central(m, n, start + j * self.step) for j in range(self.count)
        )


@dataclass(frozen=True)
class WeightedRay:
    """Ray scale*(r, s) for fixed unit-sum direction weights."""

    r: tuple[float, ...]
    s: tuple[float, ...]
    step: float
    count: int
    start: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "s", tuple(float(x) for x in self.s))
        _check_unit_weights(self.r, self.s)
        if self.step <= 0 or self.count < 1:
            raise ParameterError("need step > 0 and count >= 1")
        if self.start is not None and self.start <= 0:
            raise ParameterError("start must be positive when given")

    def weights(self, m: int, n: int) -> tuple[WeightVector, ...]:
        if (len(self.r), len(self.s)) != (m, n):
            raise ParameterError("ray weights sized for m=%d, n=%d" % (len(self.r), len(self.s)))
        start = self.step if self.start is None else self.start
        return tuple(
            WeightVector.weighted(self.r, self.s, start + j * self.step)
            for j in range(self.count)
        )


@dataclass(frozen=True)
class ExplicitList:
    """A finite, fully spelled-out family (never drifts by construction)."""

    items: tuple[WeightVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not all(isinstance(w, WeightVector) for w in self.items):
            raise ParameterError("items must be WeightVector instances")

    def weights(self, m: int, n: int) -> tuple[WeightVector, ...]:
        for w in self.items:
            if (w.m, w.n) != (m, n):
                raise ParameterError("family element for m=%d,n=%d used with m=%d,n=%d"
                                     % (w.m, w.n, m, n))
        return self.items


@dataclass(frozen=True)
class DriftingGrid:
    """Base directions rescaled so min_i t_i walks up a declared floor ladder."""

    base: tuple[WeightVector, ...]
    floors: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "floors", tuple(float(f) for f in self.floors))
        if not self.base or not self.floors:
            raise ParameterError("base and floors must be nonempty")
        if any(f <= 0 for f in self.floors):
            raise ParameterError("floors must be positive")
        if list(self.floors) != sorted(set(self.floors)):
            raise ParameterError("floors must be strictly increasing")

    def weights(self, m: int, n: int) -> tuple[WeightVector, ...]:
        out = []
        for f in self.floors:
            for w in self.base:
                if (w.m, w.n) != (m, n):
                    raise ParameterError("base element has wrong (m, n)")
                out.append(w.scaled(f / w.floor))
        return tuple(out)


TrajectoryFamily = CentralRay | WeightedRay | ExplicitList | DriftingGrid


# ---------------------------------------------------------------------------
# Horizon-bounded improvability classification
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    IMPROVABLE_UP_TO_HORIZON = "improvable-up-to-horizon"
    NOT_IMPROVABLE_WITNESSED = "not-improvable-witnessed"
    INDETERMINATE_BOUNDARY = "indeterminate-boundary"


@dataclass(frozen=True)
class DIRecord:
    t: WeightVector
    status: Solvability
    witness: DirichletWitness | None


@dataclass(frozen=True)
class DIReport:
    """Horizon-bounded evidence about eps-improvability along one family.

    The verdict looks at the final stretch (norms >= 0.9 * horizon):
    any unsolvable time there witnesses non-improvability; otherwise a
    boundary time leaves the question indeterminate; otherwise the
    family is improvable up to the horizon, with threshold the largest
    norm at which the system was not solvable.  This never claims true
    improvability, which quantifies over all large t.
    """

    eps: float
    horizon_norm: float
    records: tuple[DIRecord, ...]
    last_not_solvable_norm: float | None
    verdict: Verdict

    def to_records(self) -> list[dict]:
        """JSON-friendly rows {t, norm, floor, solvable, witness_p, witness_q}."""
        rows = []
        for rec in self.records:
            rows.append({
                "t": list(rec.t.t),
                "norm": rec.t.norm,
                "floor": rec.t.floor,
                "solvable": rec.status.value,
                "witness_p": list(rec.witness.p) if rec.witness else None,
                "witness_q": list(rec.witness.q) if rec.witness else None,
            })
        return rows


def di_classify(
    Y: LinearFormSystem,
    family: TrajectoryFamily,
    eps: float,
    horizon_norm: float,
    margin: float = DEFAULT_MARGIN,
) -> DIReport:
    """Evaluate solvability at every generated t with norm <= horizon."""
    if horizon_norm <= 0:
        raise ParameterError("horizon_norm must be positive")
    generated = family.weights(Y.m, Y.n)
    if not generated:
        raise ParameterError("family generated no weight vectors")
    tested = [w for w in generated if w.norm <= horizon_norm]
    stretch_floor = 0.9 * horizon_norm
    if not any(w.norm >= stretch_floor for w in tested):
        raise ParameterError(
            "family reaches norm %g but the horizon stretch needs >= %g"
            % (max((w.norm for w in tested), default=0.0), stretch_floor)
        )
    records = []
    for w in tested:  # generation order, deterministic
        status, witness = _lattice_status(Y, w, eps, margin)
        records.append(DIRecord(t=w, status=status, witness=witness))

    not_solv = [r.t.norm for r in records if r.status is not Solvability.SOLVABLE]
    last_bad = max(not_solv) if not_solv else None
    stretch = [r for r in records if r.t.norm >= stretch_floor]
    if any(r.status is Solvability.UNSOLVABLE for r in stretch):
        verdict = Verdict.NOT_IMPROVABLE_WITNESSED
    elif any(r.status is Solvability.BOUNDARY for r in stretch):
        verdict = Verdict.INDETERMINATE_BOUNDARY
    else:
        verdict = Verdict.IMPROVABLE_UP_TO_HORIZON
    return DIReport(eps=eps, horizon_norm=horizon_norm, records=tuple(records),
                    last_not_solvable_norm=last_bad, verdict=verdict)


def trajectory_lambda1(
    Y: LinearFormSystem,
    family: TrajectoryFamily,
) -> tuple[tuple[WeightVector, float], ...]:
    """Shortest-vector length along the family, in generation order."""
    out = []
    for w in family.weights(Y.m, Y.n):
        if Y.k == 2:
            flow_exponents(w)  # overflow guard
            lam, _ = shortest_forms_vector(Y.entry(0, 0), w.t[0], w.t[1])
        else:
            sv = shortest_vector_supnorm(flowed_basis(Y, w))
            lam = _exact_coeff_norm(Y, w, sv.coeffs[: Y.m], sv.coeffs[Y.m:])
        out.append((w, lam))
    return tuple(out)


# ---------------------------------------------------------------------------
# Badly-approximable quality
# ---------------------------------------------------------------------------


def ba_quality(Y: LinearFormSystem, r, s, q_max: int) -> float:
    """inf over 0 < |q|_sup <= q_max of max_i {Y_i q}^{1/r_i} * max_j |q_j|^{1/s_j}.

    {x} is the fractional part (one-sided approximation from above),
    and q runs over the canonical half grid whose first nonzero
    coordinate is positive.  The value is nonincreasing in q_max; a
    positive infimum over all q is the badly-approximable property for
    the weights (r, s).  For the golden ratio with r = s = (1) this
    converges onto the classical 1/sqrt(5).
    """
    r = tuple(float(x) for x in r)
    s = tuple(float(x) for x in s)
    _check_unit_weights(r, s)
    if (len(r), len(s)) != (Y.m, Y.n):
        raise ParameterError("weights sized %d,%d for a %dx%d system"
                             % (len(r), len(s), Y.m, Y.n))
    if q_max < 1:
        raise ParameterError("q_max must be >= 1")
    total = ((2 * q_max + 1) ** Y.n - 1) // 2
    if total > BA_BUDGET:
        raise CapacityError(
            "quality scan needs %d evaluations, budget is %d" % (total, BA_BUDGET)
        )
    axes = [np.arange(-q_max, q_max + 1)] * Y.n
    best = math.inf
    inv_r = 1.0 / np.array(r)
    inv_s = 1.0 / np.array(s)
    for _, chunk in _iter_q_chunks(axes, chunk=1 << 18):
        lead = chunk[np.arange(chunk.shape[0]), np.argmax(chunk != 0, axis=1)]
        chunk = chunk[lead > 0].astype(float)
        if chunk.shape[0] == 0:
            continue
        R = chunk @ Y.Y.T
        dist = R - np.floor(R)
        left = np.max(dist ** inv_r[None, :], axis=1)
        right = np.max(np.abs(chunk) ** inv_s[None, :], axis=1)
        best = min(best, float(np.min(left * right)))
    return best

