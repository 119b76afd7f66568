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

flowed_bases is the one builder of the flowed lattice g_t (I_m, Y; 0, I_n)
Z^k, for one system (flowed_basis) and for the stacks the experiments
decide in one batch.  At k = 2 no basis is built: the shortest vector is
a convergent of y or the q = 0 column.  shortest_forms_vector finds it
with its witness, for a float or an exact rational y, and
shortest_forms_batch gives its length for a whole array of float y in
int64 arithmetic; the scalar is the batch's bit-for-bit oracle.

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
from . import lattice as _lattice
from .lattice import (
    DEFAULT_MARGIN,
    LatticeBasis,
    ThickRegion,
    _BOX_SLICE,
    _check_margin,
    _half_box,
    shortest_vector_supnorm,
    trichotomy,
)
from . import rng as _rng

MAX_FORMS = 4
DIRECT_BUDGET = 100_000_000
BA_BUDGET = 10_000_000
_Q_CHUNK = 1 << 21  # candidates per slab of dirichlet_solvable_direct
FLOW_OVERFLOW_GUARD = 300.0
# the float error of a lambda1 value at the cap is about 2^-52 e^24 ~ 6e-6
MAX_FLOW_SKEW = 24.0

_TAG_FORMS = 23


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
    """Flow exponents (t_1..t_k), k = m + n, balanced between the two blocks.

    Every entry is at most FLOW_OVERFLOW_GUARD, so e^{t_i} and every
    product the flows form from it stay finite doubles.
    """

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
        if max(t) > FLOW_OVERFLOW_GUARD:
            raise ParameterError(
                "weight entry %g exceeds overflow guard %g" % (max(t), FLOW_OVERFLOW_GUARD)
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


def _check_flow_skew(t: WeightVector) -> None:
    """CapacityError once the flow skew max(t_front) + max(t_back) passes
    MAX_FLOW_SKEW."""
    skew = max(t.t[: t.m]) + max(t.t[t.m:])
    if skew > MAX_FLOW_SKEW:
        raise CapacityError("flow skew %g exceeds the float precision cap %g"
                            % (skew, MAX_FLOW_SKEW))


def _check_lattice_reach(family) -> None:
    """_check_flow_skew of each weight at k >= 3; k = 2 takes exact convergents."""
    for w in family:
        if w.k > 2:
            _check_flow_skew(w)


def _check_unit_weights(r, s):
    if not r or not s:
        raise ParameterError("weight tuples must be nonempty")
    if not (all(x > 0 for x in r) and all(x > 0 for x in s)):
        raise ParameterError("weights must be positive")
    if not (abs(math.fsum(r) - 1.0) <= 1e-9 and abs(math.fsum(s) - 1.0) <= 1e-9):
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


def flow_exponents(t: WeightVector) -> np.ndarray:
    """Signed exponents (t_1..t_m, -t_{m+1}..-t_k)."""
    return np.concatenate([np.array(t.t[: t.m]), -np.array(t.t[t.m:])])


def flow_matrix(t: WeightVector) -> np.ndarray:
    """diag(e^{t_1},..,e^{t_m}, e^{-t_{m+1}},..,e^{-t_k}); determinant 1."""
    return np.diag(np.exp(flow_exponents(t)))


def _check_sizes(Y: LinearFormSystem, t: WeightVector) -> None:
    if (Y.m, Y.n) != (t.m, t.n):
        raise ParameterError("Y is %dx%d but t is for m=%d, n=%d" % (Y.m, Y.n, t.m, t.n))


def _check_family(Y: LinearFormSystem, family) -> None:
    """_check_sizes and _check_lattice_reach of every weight of the family."""
    for w in family:
        _check_sizes(Y, w)
    _check_lattice_reach(family)


def flowed_bases(Y, t: WeightVector) -> np.ndarray:
    """g_t (I_m, Y; 0, I_n) for every system in a stack Y of shape (N, m, n).

    Returns the bases as an array (N, k, k).  The lattice of one basis is
    {(Yq + a, q) : a, q integer} before the flow: the coefficient vector
    (-p, q) lands on (Yq - p, q).  g_t acts as row scaling: entry (i, j)
    is the i-th diagonal entry of g_t times the forms-basis entry, rounded
    once.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 3 or Y.shape[1:] != (t.m, t.n):
        raise ParameterError("Y stack has shape %r, expected (N, %d, %d)"
                             % (Y.shape, t.m, t.n))
    bases = np.tile(np.eye(t.k), (Y.shape[0], 1, 1))
    bases[:, : t.m, t.m:] = Y
    bases *= np.exp(flow_exponents(t))[:, None]
    return bases


def flowed_basis(Y: LinearFormSystem, t: WeightVector) -> LatticeBasis:
    """flowed_bases of the one system Y."""
    return LatticeBasis(flowed_bases(Y.Y[None], t)[0])


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


def _iter_q_chunks(axes: list[np.ndarray]):
    """Yield (offset, Q) slabs of the product grid in C order, bounded memory."""
    shape = tuple(a.size for a in axes)
    total = int(np.prod([a.size for a in axes], dtype=np.int64))
    for lo in range(0, total, _Q_CHUNK):
        idx = np.arange(lo, min(lo + _Q_CHUNK, total))
        multi = np.unravel_index(idx, shape)
        yield lo, np.stack([ax[mi] for ax, mi in zip(axes, multi)], axis=1)


def _q_axis_bound(eps: float, tj: float, weak_q: bool) -> int:
    cap = eps * math.exp(tj)
    b = math.floor(cap)
    if not weak_q and b == cap:
        b -= 1  # strict line excludes an exactly-integer cap
    return max(b, 0)


def _direct_bounds(Y: LinearFormSystem, t: WeightVector, eps: float, weak_q: bool) -> list:
    """Per-axis q bounds of the direct scan, once Y fits t, eps is in (0, 1]
    and the q-box fits DIRECT_BUDGET."""
    _check_sizes(Y, t)
    if not (0 < eps <= 1):
        raise ParameterError("eps must satisfy 0 < eps <= 1, got %r" % (eps,))
    bounds = [_q_axis_bound(eps, tj, weak_q) for tj in t.t[t.m:]]
    total = 1
    for b in bounds:
        total *= 2 * b + 1
    if total > DIRECT_BUDGET:
        raise CapacityError(
            "direct enumeration needs %d candidates, budget is %d" % (total, DIRECT_BUDGET)
        )
    return bounds


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
    bounds = _direct_bounds(Y, t, eps, weak_q)
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


def _convergents(x: Fraction):
    """Convergents (p, q) of a Fraction x >= 0 in order, (floor x, 1) first and
    x last, by Euclid (the first two share q = 1 when x - floor x > 1/2)."""
    num, den = x.numerator, x.denominator
    h_prev, k_prev, h, k = 0, 1, 1, 0   # two virtual convergents before a0
    while den != 0:
        a_dig = num // den
        num, den = den, num - a_dig * den
        h_prev, k_prev, h, k = h, k, a_dig * h + h_prev, a_dig * k + k_prev
        yield h, k


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
    for h, k in _convergents(x):
        f = max(grow * float(abs(x * k - h)), shrink * float(k))
        if f < best:
            best = f
            best_pq = (shift * k + h, k)
        if shrink * float(k) >= best:
            break
    return best, best_pq


def shortest_forms_batch(y, t_left: float, t_right: float) -> np.ndarray:
    """lambda1 of shortest_forms_vector for every float y of a 1-D array,
    bit for bit, in int64.

    y and -y give one value, the least max(grow d, shrink k) over q = k >= 1
    with d the distance of x k to the nearest integer (and grow, for q = 0),
    which is the same for x and 1 - x.  So let x = |y| - floor(|y|), exact.
    Where x 2^62 is an integer (always for |y| >= 1 or x >= 2^-10), Euclid
    runs on (x 2^62, 2^62) for all rows at once.  Each remainder r is
    |x k - h| 2^62 exactly, so e^t_left 2^-62 float(r) is the scalar loop's
    grow * float(d), and the convergent denominators k, at most the
    denominator of x, never pass 2^62.  Each step takes the scalar loop's
    float operations and exits; the first, whose quotient is 0, is taken in
    closed form.  Both exits are length >= best: at r = 0 the candidate
    max(gain r, length) is length, so best <= length after the step.  A
    done row may iterate on without changing its value, since k only
    grows; the live rows are compacted once at most a quarter remain, or
    before a row that reached r = 0 would divide by it (none has while all
    are live).  The other rows go to shortest_forms_vector one by one.
    Chunks of lattice._CHUNK rows keep the arrays in cache.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ParameterError("expected a 1-D array of finite values, got shape %r"
                             % (y.shape,))
    chunk = _lattice._CHUNK
    if y.size > chunk:
        return np.concatenate([shortest_forms_batch(y[i:i + chunk], t_left, t_right)
                               for i in range(0, y.size, chunk)])
    grow, shrink = math.exp(t_left), math.exp(-t_right)
    gain = grow * 2.0 ** -62
    x = np.abs(y)
    x -= np.floor(x)
    x *= 2.0 ** 62
    integral = x == np.floor(x)
    lam = np.empty(y.size)
    for i in np.flatnonzero(~integral):
        lam[i] = shortest_forms_vector(float(y[i]), t_left, t_right)[0]
    rows = np.flatnonzero(integral)
    # the first step's quotient is 0: it leaves remainder x 2^62 and k = 1
    num, den = np.full(rows.size, 1 << 62), x[rows].astype(np.int64)
    k_prev, k = np.zeros(rows.size, dtype=np.int64), np.ones(rows.size, dtype=np.int64)
    best = np.minimum(grow, np.maximum(gain * den, shrink))
    length = shrink
    while True:
        live = np.flatnonzero(length < best)
        if 4 * live.size <= rows.size or (live.size < rows.size and not den.all()):
            lam[rows] = best
            rows, num, den, k_prev, k, best = (v[live] for v in
                                               (rows, num, den, k_prev, k, best))
            if not rows.size:
                return lam
        a, r = np.divmod(num, den)
        num, den = den, r
        a *= k
        a += k_prev
        k_prev, k = k, a
        length = shrink * k
        np.minimum(best, np.maximum(gain * r, length), out=best)


def _forms_lambda1(Y: LinearFormSystem, t: WeightVector) -> tuple:
    """(lambda1, p, q) of the flowed forms lattice and its shortest vector."""
    _check_family(Y, (t,))
    if Y.k == 2:
        lam, pq = shortest_forms_vector(Y.entry(0, 0), t.t[0], t.t[1])
        # pq is None only for the q=0 column, whose norm e^t exceeds 1 > eps
        return (lam, (pq[0],), (pq[1],)) if pq else (lam, (), ())
    sv = shortest_vector_supnorm(flowed_basis(Y, t))
    # re-anchor the winner's norm in exact arithmetic: at larger flow
    # times the basis-times-coefficients product cancels catastrophically
    a, q = sv.coeffs[: Y.m], sv.coeffs[Y.m:]
    return _exact_coeff_norm(Y, t, a, q), tuple(-x for x in a), q


def _lattice_status(
    Y: LinearFormSystem,
    t: WeightVector,
    eps: float,
    margin: float,
) -> tuple[Solvability, DirichletWitness | None]:
    lam, p, q = _forms_lambda1(Y, t)
    region = trichotomy(lam, eps, margin)
    if region is ThickRegion.INSIDE:
        return Solvability.UNSOLVABLE, None
    if region is ThickRegion.BOUNDARY:
        return Solvability.BOUNDARY, None
    return Solvability.SOLVABLE, DirichletWitness.checked(Y, t, eps, weak_q=False, p=p, q=q)


def _check_lattice_eps(eps: float) -> None:
    if not (0 < eps < 1):
        raise ParameterError("lattice route requires 0 < eps < 1, got %r" % (eps,))


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
    _check_lattice_eps(eps)
    status, _ = _lattice_status(Y, t, eps, margin)
    return status


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


def _di_tested(family: tuple[WeightVector, ...], eps: float, horizon_norm: float,
               margin: float) -> list:
    """The family's weights with norm <= horizon, once the horizon is
    positive, the family nonempty, its tested part reaches the final
    stretch (norms >= 0.9 * horizon), eps suits the lattice route, the
    margin is >= 0 and every tested weight is in reach (_check_lattice_reach)."""
    if horizon_norm <= 0:
        raise ParameterError("horizon_norm must be positive")
    if not family:
        raise ParameterError("family generated no weight vectors")
    tested = [w for w in family if w.norm <= horizon_norm]
    stretch_floor = 0.9 * horizon_norm
    if not any(w.norm >= stretch_floor for w in tested):
        raise ParameterError(
            "family reaches norm %g but the horizon stretch needs >= %g"
            % (max((w.norm for w in tested), default=0.0), stretch_floor)
        )
    _check_lattice_eps(eps)
    _check_margin(margin)
    _check_lattice_reach(tested)
    return tested


def di_classify(
    Y: LinearFormSystem,
    family: tuple[WeightVector, ...],
    eps: float,
    horizon_norm: float,
    margin: float = DEFAULT_MARGIN,
) -> DIReport:
    """Evaluate solvability at every family t with norm <= horizon."""
    records = []
    for w in _di_tested(family, eps, horizon_norm, margin):  # family order, deterministic
        status, witness = _lattice_status(Y, w, eps, margin)
        records.append(DIRecord(t=w, status=status, witness=witness))

    not_solv = [r.t.norm for r in records if r.status is not Solvability.SOLVABLE]
    last_bad = max(not_solv) if not_solv else None
    stretch = [r for r in records if r.t.norm >= 0.9 * horizon_norm]
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
    family: tuple[WeightVector, ...],
) -> tuple[tuple[WeightVector, float], ...]:
    """Shortest-vector length along the family, in family order, after _check_family."""
    _check_family(Y, family)
    return tuple((w, _forms_lambda1(Y, w)[0]) for w in family)


# ---------------------------------------------------------------------------
# Badly-approximable quality
# ---------------------------------------------------------------------------


def _ba_weights(Y: LinearFormSystem, r, s, q_max: int) -> tuple:
    """(r, s) as floats and the size of the scan, once they fit Y, q_max >= 1
    and the scan fits BA_BUDGET."""
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
    return r, s, total


def ba_quality(Y: LinearFormSystem, r, s, q_max: int) -> float:
    """inf over 0 < |q|_sup <= q_max of max_i {Y_i q}^{1/r_i} * max_j |q_j|^{1/s_j}.

    {x} is the fractional part (one-sided approximation from above),
    and q runs over the canonical half grid whose first nonzero
    coordinate is positive, in slices of lattice._half_box.  The value is
    nonincreasing in q_max; a positive infimum over all q is the
    badly-approximable property for the weights (r, s).  For the golden ratio with r = s = (1) this
    converges onto the classical 1/sqrt(5).
    """
    r, s, size = _ba_weights(Y, r, s, q_max)
    best = math.inf
    inv_r = 1.0 / np.array(r)
    inv_s = 1.0 / np.array(s)
    for part in range(-(-size // _BOX_SLICE)):
        chunk = _half_box((q_max,) * Y.n, part)
        R = chunk @ Y.Y.T
        dist = R - np.floor(R)
        left = np.max(dist ** inv_r[None, :], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # |q_j|^{1/s_j} may overflow
            right = np.max(np.abs(chunk) ** inv_s[None, :], axis=1)
            best = min(best, float(np.min(np.where(left > 0, left * right, 0.0))))  # 0 * inf is 0
    return best

