"""Unimodular lattice bases and exact sup-norm shortest vectors.

The whole package measures lattices with the sup norm: the membership
question "does the lattice contain a nonzero vector shorter than eps"
drives every solvability routine.  The shortest-vector computation is a
floating-point basis reduction (preconditioner only) followed by exact
depth-first enumeration of integer coefficients over a provably
sufficient search region, so the returned minimum is certified up to
double-precision evaluation of the candidate norms.  Both run on Python
floats, with the change of basis in exact Python integers.

Stacks of lattices go through the one batch kernel shortest_supnorm_batch,
which falls back to that exact route where its certificate fails.

Sign conventions: bases are k x k matrices whose COLUMNS generate the
lattice, with determinant +1 (tolerance 1e-9, inputs outside are
rejected, never renormalized).
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateBasisError, ParameterError
from . import rng as _rng

DET_TOLERANCE = 1e-9
DEFAULT_MARGIN = 1e-9
NODE_CAP = 10_000_000
MAX_DIM = 6

_REDUCE_ITER_CAP = 20_000
_CHUNK = 16384  # bases per step of shortest_supnorm_batch
_LLL_DELTA = 0.99
_TAG_UNIMODULAR = 11
_UNIMODULAR_ATTEMPTS = 8


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Columns generate a unimodular lattice in R^k (det = +1)."""

    columns: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.columns, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ParameterError("basis must be a square matrix, got shape %r" % (M.shape,))
        if not np.all(np.isfinite(M)):
            raise ParameterError("basis entries must be finite")
        k = M.shape[0]
        if k < 2:
            raise ParameterError("dimension must be >= 2, got %d" % k)
        if k > MAX_DIM:
            raise ParameterError("dimension %d exceeds supported desk scale (k <= %d)"
                                 % (k, MAX_DIM))
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


_REGIONS = np.array([ThickRegion.OUTSIDE, ThickRegion.BOUNDARY, ThickRegion.INSIDE], dtype=object)


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


def _gram_schmidt(cols):
    """Orthogonalization profile of columns given as lists of floats:
    (mu, norms2), where mu[i] lists the coefficients mu_ij, j < i."""
    star, mu, norms2 = [], [], []
    for i, b in enumerate(cols):
        v = b
        mu.append([])
        for j in range(i):
            if norms2[j] <= 0.0:
                raise DegenerateBasisError("Gram-Schmidt collapsed at column %d" % j)
            m = sum(map(operator.mul, b, star[j])) / norms2[j]
            mu[i].append(m)
            v = [x - m * y for x, y in zip(v, star[j])]
        star.append(v)
        norms2.append(sum(map(operator.mul, v, v)))
    return mu, norms2


def reduce_basis(basis: LatticeBasis) -> BasisReduction:
    """LLL-style reduction of the columns, tracking the integer transform.

    The float basis is only a preconditioner for enumeration, but the
    transform is kept in exact Python integers (entries can exceed
    int64 for very skewed bases), so the original lattice is provably
    preserved.  The k <= MAX_DIM columns are lists of Python floats; one
    Gram-Schmidt runs per step, and size reduction updates mu in place.
    """
    k = basis.k
    B = basis.columns.T.tolist()  # B[j] is column j
    T = [[int(r == j) for r in range(k)] for j in range(k)]  # T[j]: coefficients of B[j]

    iters = 0
    i = 1
    while i < k:
        iters += 1
        if iters > _REDUCE_ITER_CAP:
            raise DegenerateBasisError("basis reduction did not converge within %d iterations"
                                       % _REDUCE_ITER_CAP)
        mu, norms2 = _gram_schmidt(B[: i + 1])
        for j in range(i - 1, -1, -1):
            r = round(mu[i][j])
            if r != 0:
                B[i] = [x - r * y for x, y in zip(B[i], B[j])]
                T[i] = [x - r * y for x, y in zip(T[i], T[j])]
                mu[i][:j] = [x - r * y for x, y in zip(mu[i], mu[j])]
                mu[i][j] -= r
        if norms2[i] >= (_LLL_DELTA - mu[i][i - 1] ** 2) * norms2[i - 1]:
            i += 1
        else:
            B[i - 1], B[i] = B[i], B[i - 1]
            T[i - 1], T[i] = T[i], T[i - 1]
            i = max(i - 1, 1)

    detU = integer_det(T)
    if detU not in (1, -1):
        raise DegenerateBasisError("reduction transform determinant %d, expected +-1" % detU)
    if detU == -1:
        # keep orientation so the result is a valid LatticeBasis
        B[k - 1] = [-x for x in B[k - 1]]
        T[k - 1] = [-x for x in T[k - 1]]

    transform = np.array(T, dtype=object).T.copy()
    return BasisReduction(reduced=LatticeBasis(np.array(B).T), transform=transform)


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
    the ORIGINAL basis, U @ c.
    """
    rows = np.asarray(B, dtype=float).tolist()
    cols = [list(col) for col in zip(*rows)]
    U = np.asarray(U, dtype=object).tolist()
    k = len(cols)
    mu, norms2 = _gram_schmidt(cols)
    if min(norms2) <= 0.0:
        raise DegenerateBasisError("degenerate Gram-Schmidt profile")

    # initial upper bound: best single reduced column
    col_sup = [max(abs(x) for x in col) for col in cols]
    j0 = col_sup.index(min(col_sup))
    best_len = col_sup[j0]
    best_orig = _canonical_coeffs(tuple(U[r][j0] for r in range(k)))

    c = [0] * k
    nodes = 0
    slack = 1.0 + 1e-12

    def consider(cvec):
        nonlocal best_len, best_orig
        length = max(abs(sum(map(operator.mul, row, cvec))) for row in rows)
        if not length <= best_len:
            return
        orig = _canonical_coeffs(tuple(
            sum(U[r][j] * cvec[j] for j in range(k)) for r in range(k)
        ))
        if length < best_len or orig < best_orig:
            best_len = length
            best_orig = orig

    # DFS over levels k-1 .. 0; partial[i] = sum_{l>i} z_l^2 |b*_l|^2
    def dfs(level, partial, centers):
        nonlocal nodes
        r2 = k * best_len * best_len * slack
        if partial > r2:
            return
        if level < 0:
            if any(c):
                consider(c)
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
                dfs(level - 1, part,
                    [x + ci * m for x, m in zip(centers, mu[level])])
        c[level] = 0

    dfs(k - 1, 0.0, [0.0] * k)
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


def _check_margin(margin: float) -> None:
    if not margin >= 0:
        raise ParameterError("margin must be >= 0")


def _region_code(lam, eps: float, margin: float):
    """trichotomy as an index into _REGIONS: 0 OUTSIDE, 1 BOUNDARY, 2 INSIDE."""
    if eps <= 0:
        raise ParameterError("eps must be positive, got %r" % (eps,))
    _check_margin(margin)
    lam = np.asarray(lam, dtype=float)
    return 1 + (lam >= eps + margin).astype(np.intp) - (lam < eps - margin)


def trichotomy(lam, eps: float, margin: float):
    """The one decision rule placing shortest-vector lengths against eps.

    OUTSIDE iff lam < eps - margin (a nonzero vector shorter than eps),
    INSIDE iff lam >= eps + margin (the eps-thick part), BOUNDARY
    otherwise, NaN included.  A scalar ``lam`` gives one ThickRegion, an
    array gives an object array of them.  Callers must treat BOUNDARY as
    indeterminate, never coerce it.
    """
    return _REGIONS[_region_code(lam, eps, margin)]


def shortest_with_region(
    basis: LatticeBasis,
    eps: float,
    margin: float = DEFAULT_MARGIN,
) -> tuple[ShortestVectorResult, ThickRegion]:
    """The shortest vector and the trichotomy region of its length against eps."""
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
    # shears that grow the entries too far fail the determinant check: redraw
    for _ in range(_UNIMODULAR_ATTEMPTS):
        U = np.eye(k)
        for _ in range(3 * k):
            i, j = gen.choice(k, size=2, replace=False)
            U[:, j] += int(gen.integers(-shear_mag, shear_mag + 1)) * U[:, i]
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
        if abs(float(np.linalg.det(B)) - 1.0) <= 1e-12:
            return LatticeBasis(B)
    raise DegenerateBasisError(
        "unimodular renormalization failed in %d attempts" % _UNIMODULAR_ATTEMPTS)


def _gram_schmidt_batch(cols):
    """_gram_schmidt of many bases at once, lattice index last: cols[i] of
    shape (k, N) is column i of every basis.  Returns mu (c, c, N) with unit
    diagonal, norms2 and the orthogonalized columns."""
    mu = np.zeros((len(cols), len(cols), cols[0].shape[1]))
    star, norms2 = [], []
    for i, b in enumerate(cols):
        v = b.copy()
        for j in range(i):
            mu[i, j] = (b * star[j]).sum(axis=0) / norms2[j]
            v -= mu[i, j] * star[j]
        mu[i, i] = 1.0
        star.append(v)
        norms2.append((v * v).sum(axis=0))
    return mu, norms2, star


def _combine(B: np.ndarray, u) -> np.ndarray:
    """Sum over c of B[:, c] * u[c], added in the order c = 0, 1, ... (see _lll_batch)."""
    return sum((B[:, c] * u[c] for c in range(1, len(u))), B[:, 0] * u[0])


def _lll_batch(B: np.ndarray) -> np.ndarray:
    """LLL reduction (delta = _LLL_DELTA) of every basis in a stack (k, k, N),
    lattice index last, returned in the same layout.

    A sweep size-reduces columns 1..k-1 in turn and swaps each with its
    predecessor where the Lovasz condition fails.  A basis is done after a
    sweep that swaps nothing: each column was then size-reduced against
    final predecessors, and the Lovasz condition holds everywhere.
    Size-reduction alone must not keep a basis active: with mu near +-1/2,
    rint of the recomputed mu can flip sign in every sweep.  Sweeps update
    integer coefficients T, not vectors: float column operations pile up
    rounding that, on skewed bases, leaves the lattice.  B and T hold active
    bases only: after each sweep the done ones go to the output and `take`
    drops them.  _combine fixes the order of sums; einsum's varies with N.
    """
    k, n = B.shape[0], B.shape[2]
    T = [np.repeat(row[:, None], n, axis=1) for row in np.eye(k)]  # coefficients of column j
    out, index = np.empty_like(B), np.arange(n)
    for _ in range(_REDUCE_ITER_CAP):
        if index.size == 0:
            return out
        swapped = np.zeros(index.size, dtype=bool)
        for i in range(1, k):
            mu, norms2, _ = _gram_schmidt_batch([_combine(B, u) for u in T[: i + 1]])
            for j in range(i - 1, -1, -1):
                r = np.rint(mu[i, j])
                T[i] -= r * T[j]
                mu[i, : j + 1] -= r * mu[j, : j + 1]
            swap = norms2[i] < (_LLL_DELTA - mu[i, i - 1] ** 2) * norms2[i - 1]
            T[i - 1], T[i] = np.where(swap, T[i], T[i - 1]), np.where(swap, T[i - 1], T[i])
            swapped |= swap
        done, keep = np.flatnonzero(~swapped), np.flatnonzero(swapped)
        Bd = B.take(done, axis=2)
        out[:, :, index[done]] = np.stack([_combine(Bd, u.take(done, axis=1)) for u in T], 1)
        B, T, index = B.take(keep, axis=2), [u.take(keep, axis=1) for u in T], index[keep]
    raise DegenerateBasisError("batched reduction did not converge within %d sweeps"
                               % _REDUCE_ITER_CAP)


def shortest_supnorm_batch(bases: np.ndarray, cap: float = math.inf) -> np.ndarray:
    """Sup-norm first minimum of each basis in a stack of shape (N, k, k).

    Values up to ``cap`` are exact; above cap, a value only shows that the
    minimum exceeds cap.  After LLL, L is the least length over coefficients
    in {-1, 0, 1}^k, and a vector v of length <= min(L, cap) has coefficients
    c = B^-1 v with |c|_inf <= ||B^-1||_inf min(L, cap).  Where that bound
    is below 2, c was scanned; elsewhere exact enumeration decides.  At
    k = 2 the bound is at most sqrt(2) |u| |v| <= 1.64 for a reduced pair.
    Chunks of _CHUNK bases keep the arrays in cache.  With ordered sums and
    per-basis steps, a value does not depend on the rest of the stack.
    """
    B = np.array(bases, dtype=float)
    if not (B.ndim == 3 and B.shape[1] == B.shape[2] and 2 <= B.shape[1] <= MAX_DIM
            and np.all(np.isfinite(B))):
        raise ParameterError("expected finite bases of shape (N, k, k), 2 <= k <= %d, "
                             "got shape %r" % (MAX_DIM, B.shape))
    if B.shape[0] > _CHUNK:
        return np.concatenate([shortest_supnorm_batch(B[i:i + _CHUNK], cap)
                               for i in range(0, B.shape[0], _CHUNK)])
    k = B.shape[1]
    R = _lll_batch(np.ascontiguousarray(B.transpose(1, 2, 0)))
    # lexicographically after the zero vector: the first nonzero entry is 1
    stencil = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=k)))[3 ** k // 2 + 1:]
    lam = np.full(B.shape[0], math.inf)
    for c in stencil:
        np.minimum(lam, np.abs(_combine(R, c)).max(axis=0), out=lam)
    # the rows of R^-1 are the dual basis d_i = b*_i / |b*_i|^2 - sum_{j>i} mu_ji d_j
    mu, norms2, star = _gram_schmidt_batch([R[:, j] for j in range(k)])
    dual = []
    for i in reversed(range(k)):
        dual.insert(0, star[i] / norms2[i] - sum(mu[j, i] * d for j, d in enumerate(dual, i + 1)))
    inverse_norm = np.max([np.abs(d).sum(axis=0) for d in dual], axis=0)
    for i in np.flatnonzero(~(inverse_norm * np.minimum(lam, cap) < 2.0)):
        lam[i] = shortest_vector_supnorm(LatticeBasis(B[i])).length
    return lam


def shortest_supnorm_k2_batch(bases: np.ndarray) -> np.ndarray:
    """shortest_supnorm_batch of a stack of 2x2 bases, shape (N, 2, 2)."""
    if np.shape(bases)[1:] != (2, 2):
        raise ParameterError("expected shape (N, 2, 2), got %r" % (np.shape(bases),))
    return shortest_supnorm_batch(bases)
