"""Unimodular lattice bases and exact sup-norm shortest vectors.

The whole package measures lattices with the sup norm: the membership
question "does the lattice contain a nonzero vector shorter than eps"
drives every solvability routine.  The shortest-vector computation is a
floating-point basis reduction (preconditioner only) followed by exact
depth-first enumeration of integer coefficients over a provably
sufficient search region, so the returned minimum is certified up to
double-precision evaluation of the candidate norms.

Sign conventions: bases are k x k matrices whose COLUMNS generate the
lattice, with determinant +1 (tolerance 1e-9, inputs outside are
rejected, never renormalized).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateBasisError, ParameterError
from . import rng as _rng

DET_TOLERANCE = 1e-9
DEFAULT_MARGIN = 1e-9
NODE_CAP = 10_000_000
MAX_DIM = 6

_REDUCE_ITER_CAP = 20_000
_LLL_DELTA = 0.99
_K2_MAX_ITER = 200
_TAG_UNIMODULAR = 11


def _as_matrix(columns, k=None):
    M = np.asarray(columns, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError("basis must be a square matrix, got shape %r" % (M.shape,))
    if k is not None and M.shape[0] != k:
        raise ParameterError("expected k=%d, got %d" % (k, M.shape[0]))
    if not np.all(np.isfinite(M)):
        raise ParameterError("basis entries must be finite")
    return M


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Columns generate a unimodular lattice in R^k (det = +1)."""

    columns: np.ndarray

    def __post_init__(self):
        M = _as_matrix(self.columns)
        k = M.shape[0]
        if k < 2:
            raise ParameterError("dimension must be >= 2, got %d" % k)
        if k > MAX_DIM:
            raise ParameterError(
                "dimension %d exceeds supported desk scale (k <= %d)" % (k, MAX_DIM)
            )
        det = float(np.linalg.det(M))
        if abs(det - 1.0) > DET_TOLERANCE:
            raise ParameterError(
                "basis determinant %.17g is not 1 within %g; refusing to renormalize"
                % (det, DET_TOLERANCE)
            )
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "columns", M)

    @property
    def k(self) -> int:
        return self.columns.shape[0]

    def to_text(self) -> str:
        """Row-major decimal text, 17 significant digits, header "k=<int>"."""
        lines = ["k=%d" % self.k]
        for row in self.columns:
            lines.append(" ".join("%.17g" % x for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LatticeBasis":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("k="):
            raise ParameterError("basis text must start with a 'k=<int>' header")
        try:
            k = int(lines[0][2:])
        except ValueError as exc:
            raise ParameterError("bad dimension header %r" % lines[0]) from exc
        if len(lines) != k + 1:
            raise ParameterError("expected %d rows after header, got %d" % (k, len(lines) - 1))
        rows = []
        for ln in lines[1:]:
            vals = [float(tok) for tok in ln.split()]
            if len(vals) != k:
                raise ParameterError("row %r does not have %d entries" % (ln, k))
            rows.append(vals)
        return cls(np.array(rows))


@dataclass(frozen=True, eq=False)
class ShortestVectorResult:
    """Certified sup-norm minimum over nonzero integer combinations."""

    coeffs: tuple[int, ...]
    image: np.ndarray
    length: float


@dataclass(frozen=True, eq=False)
class BasisReduction:
    """Reduced basis plus the exact integer change of basis.

    ``reduced.columns == original.columns @ transform`` up to float
    rounding; ``transform`` is integer with determinant +1, so the
    lattice is preserved and the reduction is auditable.
    """

    reduced: LatticeBasis
    transform: np.ndarray


class ThickRegion(enum.Enum):
    """Trichotomy for membership in the eps-thick part of the lattice space."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


# indexed by 1 + (inside test) - (outside test), see trichotomy
_REGIONS = np.array([ThickRegion.OUTSIDE, ThickRegion.BOUNDARY, ThickRegion.INSIDE],
                    dtype=object)


def integer_det(M) -> int:
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ParameterError("integer_det needs a square matrix")
    sign = 1
    prev = 1
    for i in range(n - 1):
        if A[i][i] == 0:
            for r in range(i + 1, n):
                if A[r][i] != 0:
                    A[i], A[r] = A[r], A[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                A[r][c] = (A[r][c] * A[i][i] - A[r][i] * A[i][c]) // prev
            A[r][i] = 0
        prev = A[i][i]
    return sign * A[n - 1][n - 1]


def _gram_schmidt(B):
    """Orthogonalization profile of the columns: (Bstar, mu, norms2)."""
    k = B.shape[1]
    Bstar = np.zeros_like(B)
    mu = np.zeros((k, k))
    norms2 = np.zeros(k)
    for i in range(k):
        v = B[:, i].copy()
        for j in range(i):
            if norms2[j] <= 0.0:
                raise DegenerateBasisError("Gram-Schmidt collapsed at column %d" % j)
            mu[i, j] = float(np.dot(B[:, i], Bstar[:, j])) / norms2[j]
            v -= mu[i, j] * Bstar[:, j]
        Bstar[:, i] = v
        norms2[i] = float(np.dot(v, v))
    return Bstar, mu, norms2


def reduce_basis(basis: LatticeBasis) -> BasisReduction:
    """LLL-style reduction of the columns, tracking the integer transform.

    The float basis is only a preconditioner for enumeration, but the
    transform is kept in exact Python integers (entries can exceed
    int64 for very skewed bases), so the original lattice is provably
    preserved.
    """
    k = basis.k
    B = basis.columns.astype(float).copy()
    # transform columns, exact integers
    U = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def add_col(dst, src, c):
        # column_dst += c * column_src
        B[:, dst] += float(c) * B[:, src]
        for r in range(k):
            U[r][dst] += c * U[r][src]

    def swap_cols(a, b):
        B[:, [a, b]] = B[:, [b, a]]
        for r in range(k):
            U[r][a], U[r][b] = U[r][b], U[r][a]

    iters = 0
    i = 1
    while i < k:
        iters += 1
        if iters > _REDUCE_ITER_CAP:
            raise DegenerateBasisError(
                "basis reduction did not converge within %d iterations" % _REDUCE_ITER_CAP
            )
        _, mu, norms2 = _gram_schmidt(B[:, : i + 1])
        for j in range(i - 1, -1, -1):
            r = round(mu[i, j])
            if r != 0:
                add_col(i, j, -int(r))
                _, mu, norms2 = _gram_schmidt(B[:, : i + 1])
        if norms2[i] >= (_LLL_DELTA - mu[i, i - 1] ** 2) * norms2[i - 1]:
            i += 1
        else:
            swap_cols(i, i - 1)
            i = max(i - 1, 1)

    detU = integer_det(U)
    if detU == -1:
        # keep orientation so the result is a valid LatticeBasis
        B[:, k - 1] = -B[:, k - 1]
        for r in range(k):
            U[r][k - 1] = -U[r][k - 1]
        detU = 1
    if detU != 1:
        raise DegenerateBasisError("reduction transform determinant %d, expected +-1" % detU)

    transform = np.array(U, dtype=object)
    return BasisReduction(reduced=LatticeBasis(B), transform=transform)


def _canonical_coeffs(c):
    """Flip sign so the first nonzero coefficient is positive."""
    for x in c:
        if x != 0:
            return tuple(c) if x > 0 else tuple(-v for v in c)
    return tuple(c)


def _enumerate_shortest(B, U, node_cap):
    """Exact DFS over integer coefficients of the reduced columns B.

    Sufficiency of the search region: a vector of sup-norm < L has
    Euclidean norm < sqrt(k) * L, so enumerating the Euclidean ball of
    radius sqrt(k) * L_best (inclusive, with a hair of slack for float
    rounding) cannot miss an improvement or a tie.  Ties are resolved
    by lexicographic order of the sign-canonicalized coefficients in
    the ORIGINAL basis.
    """
    k = B.shape[0]
    _, mu, norms2 = _gram_schmidt(B)
    if np.any(norms2 <= 0.0):
        raise DegenerateBasisError("degenerate Gram-Schmidt profile")

    # initial upper bound: best single reduced column
    col_sup = np.max(np.abs(B), axis=0)
    j0 = int(np.argmin(col_sup))
    best_len = float(col_sup[j0])
    best_orig = _canonical_coeffs(tuple(U[r][j0] for r in range(k)))

    c = [0] * k
    nodes = 0
    slack = 1.0 + 1e-12

    def radius2():
        return k * best_len * best_len * slack

    def consider(cvec):
        nonlocal best_len, best_orig
        img = B @ np.array(cvec, dtype=float)
        length = float(np.max(np.abs(img)))
        orig = _canonical_coeffs(tuple(
            sum(U[r][j] * cvec[j] for j in range(k)) for r in range(k)
        ))
        if length < best_len or (length == best_len and orig < best_orig):
            best_len = length
            best_orig = orig

    # DFS over levels k-1 .. 0; partial[i] = sum_{l>i} z_l^2 |b*_l|^2
    def dfs(level, partial, centers):
        nonlocal nodes
        r2 = radius2()
        if partial > r2:
            return
        if level < 0:
            if any(c):
                consider(list(c))
            return
        rem = r2 - partial
        halfwidth = math.sqrt(max(rem, 0.0) / norms2[level])
        center = centers[level]
        lo = math.ceil(-center - halfwidth - 1e-12)
        hi = math.floor(-center + halfwidth + 1e-12)
        # enumerate only the half-space where the top-most nonzero coefficient
        # is positive; each +-pair is covered once
        if level == k - 1 or not any(c[level + 1:]):
            lo = max(lo, 0)
        for ci in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise CapacityError(
                    "shortest-vector enumeration exceeded node cap %d" % node_cap
                )
            c[level] = ci
            z = ci + center
            part = partial + z * z * norms2[level]
            if part <= r2:
                new_centers = centers.copy()
                for j in range(level):
                    new_centers[j] += ci * mu[level, j]
                dfs(level - 1, part, new_centers)
        c[level] = 0

    dfs(k - 1, 0.0, np.zeros(k))
    return best_orig, best_len


def shortest_vector_supnorm(
    basis: LatticeBasis,
    node_cap: int = NODE_CAP,
) -> ShortestVectorResult:
    """Globally minimal nonzero lattice vector in the sup norm."""
    red = reduce_basis(basis)
    coeffs, _ = _enumerate_shortest(red.reduced.columns, red.transform, node_cap)
    image = basis.columns @ np.array(coeffs, dtype=float)
    length = float(np.max(np.abs(image)))
    return ShortestVectorResult(coeffs=tuple(int(x) for x in coeffs),
                                image=image, length=length)


def trichotomy(lam, eps: float, margin: float):
    """The one decision rule placing shortest-vector lengths against eps.

    OUTSIDE iff lam < eps - margin (a nonzero vector shorter than eps),
    INSIDE iff lam >= eps + margin (the eps-thick part), BOUNDARY
    otherwise, NaN included.  A scalar ``lam`` gives one ThickRegion, an
    array gives an object array of them.  Callers must treat BOUNDARY as
    indeterminate, never coerce it.
    """
    if eps <= 0:
        raise ParameterError("eps must be positive, got %r" % (eps,))
    if margin < 0:
        raise ParameterError("margin must be >= 0")
    lam = np.asarray(lam, dtype=float)
    return _REGIONS[1 + (lam >= eps + margin).astype(np.intp) - (lam < eps - margin)]


def classify_thick(
    basis: LatticeBasis,
    eps: float,
    margin: float = DEFAULT_MARGIN,
) -> ThickRegion:
    """Trichotomy: does the lattice avoid all nonzero vectors shorter than eps?"""
    _, region = shortest_with_region(basis, eps, margin)
    return region


def shortest_with_region(
    basis: LatticeBasis,
    eps: float,
    margin: float = DEFAULT_MARGIN,
) -> tuple[ShortestVectorResult, ThickRegion]:
    """classify_thick plus the witnessing shortest vector."""
    sv = shortest_vector_supnorm(basis)
    return sv, trichotomy(sv.length, eps, margin)


def random_unimodular(seed: int, k: int, spread: float = 1.0) -> LatticeBasis:
    """Deterministic pseudo-random unimodular basis.

    Composes random integer shears (exact determinant 1) with a small
    renormalized perturbation; the result satisfies |det - 1| <= 1e-12.
    """
    if k < 2 or k > MAX_DIM:
        raise ParameterError("k must be in [2, %d], got %r" % (MAX_DIM, k))
    if spread <= 0:
        raise ParameterError("spread must be positive, got %r" % (spread,))
    gen = _rng.stream(seed, 0, tag=_TAG_UNIMODULAR)
    shear_mag = max(1, int(round(spread)))
    U = np.eye(k)
    for _ in range(3 * k):
        i, j = gen.choice(k, size=2, replace=False)
        c = int(gen.integers(-shear_mag, shear_mag + 1))
        E = np.eye(k)
        E[i, j] = c
        U = U @ E
    # small perturbation, renormalized to determinant exactly ~1
    for _ in range(100):
        A = np.eye(k) + 0.05 * spread * gen.standard_normal((k, k))
        d = float(np.linalg.det(A))
        if d > 0.1:
            break
    else:
        raise DegenerateBasisError("could not draw a well-conditioned perturbation")
    A /= d ** (1.0 / k)
    B = A @ U
    # two renormalization passes pull the float determinant within 1e-12
    for _ in range(2):
        d = float(np.linalg.det(B))
        B /= d ** (1.0 / k)
    if abs(float(np.linalg.det(B)) - 1.0) > 1e-12:
        raise DegenerateBasisError("unimodular renormalization failed")
    return LatticeBasis(B)


# ---------------------------------------------------------------------------
# Vectorized 2-D fast path.
#
# The equidistribution sweeps evaluate hundreds of thousands of 2x2
# lattices; one Python-level enumeration per lattice would dominate the
# runtime.  Plane lattices admit a classical two-vector reduction whose
# steps vectorize, after which the sup-norm minimum is among a fixed
# stencil of small coefficient pairs.  Cross-checked against
# shortest_vector_supnorm in the test suite.
# ---------------------------------------------------------------------------

_K2_STENCIL = np.array(
    [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)],
    dtype=float,
)


def shortest_supnorm_k2_batch(bases: np.ndarray) -> np.ndarray:
    """Sup-norm first minimum for a stack of 2x2 bases, shape (N, 2, 2).

    After the Euclidean two-vector reduction the sup-norm minimizer has
    coefficients within the stencil |c_i| <= 2 (a reduced pair makes any
    larger combination Euclidean-longer than sqrt(2) times the minimum).
    """
    B = np.array(bases, dtype=float)
    if B.ndim != 3 or B.shape[1:] != (2, 2):
        raise ParameterError("expected shape (N, 2, 2), got %r" % (B.shape,))
    u = B[:, :, 0].copy()
    v = B[:, :, 1].copy()
    for _ in range(_K2_MAX_ITER):
        uu = np.einsum("ij,ij->i", u, u)
        uv = np.einsum("ij,ij->i", u, v)
        r = np.rint(uv / uu)
        active = r != 0
        if np.any(active):
            v[active] -= r[active, None] * u[active]
        vv = np.einsum("ij,ij->i", v, v)
        uu = np.einsum("ij,ij->i", u, u)
        swap = vv < uu
        if not np.any(swap) and not np.any(active):
            break
        u[swap], v[swap] = v[swap].copy(), u[swap].copy()
    else:
        raise DegenerateBasisError("2-D reduction did not converge in %d passes"
                                   % _K2_MAX_ITER)
    # candidates: stencil coefficients applied to the reduced pair
    cand = (_K2_STENCIL[:, 0][None, :, None] * u[:, None, :]
            + _K2_STENCIL[:, 1][None, :, None] * v[:, None, :])
    return np.min(np.max(np.abs(cand), axis=2), axis=1)
