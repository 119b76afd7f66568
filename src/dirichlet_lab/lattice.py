"""Unimodular lattice bases and exact sup-norm shortest vectors.

The whole package measures lattices with the sup norm: the membership
question "does the lattice contain a nonzero vector shorter than eps"
drives every solvability routine.  The shortest-vector computation is a
basis reduction that returns only its change of basis T, in exact Python
integers (its float columns are a preconditioner and stay inside it),
followed by an exact scan of the box of integer coefficients that the
inverse of the reduced columns proves sufficient.  The scan rebuilds those
columns from the input as input . T with ordered sums: the minimum is
certified up to double-precision evaluation of the candidate norms.

The reduction may start from any k x k integer transform with det +-1
(``start``; ShortestVectorResult.transform hands on the T it ended with).
Along a family of lattices, the previous lattice's T is a near-reduced
start for the next one.  Only the transform carries over: the float
columns start as input . start, rebuilt like the scan's, so the minimum
is certified whatever the start.  The scan ranks candidates by norms
evaluated in those columns, though, so among vectors whose lengths are
equal, or differ by about an ulp, which one wins (and so the last bits of
the reported length) may depend on the start.

Stacks of lattices (forms lattices at k >= 3; Haar bases only in tests) go
through the one batch kernel shortest_supnorm_batch: its batched reduction
returns T too, it certifies with the same bound, and where the bound exceeds
its {-1, 0, 1}^k stencil the box scan runs on that T.  The batch reduction
takes the same start contract (_lll_batch, _shortest_batch: a (k, k, N)
stack of unimodular starts, columns rebuilt as input . T at every step),
so a minimum up to the cap is certified whatever the start; escape and
decay start each t of their t list from the transforms of the t before.
Stacks of k = 2 forms lattices take exact convergents instead
(flows.shortest_forms_batch).

Sign conventions: bases are k x k matrices whose COLUMNS generate the
lattice, with determinant +1 (tolerance 1e-9, inputs outside are
rejected, never renormalized).
"""

from __future__ import annotations

import enum
import functools
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
_BOX_SLICE = 4096  # candidates per step of _enumerate_shortest
_BOX_CACHE = 64  # slices _half_box keeps
_BOX_SLACK = 1e-9  # relative slack on the bounds of _enumerate_shortest
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
    """Certified sup-norm minimum over nonzero integer combinations.

    ``transform`` is the reduction's T (reduce_basis) that the box scan
    ran on; passed as ``start`` to the next lattice of a family, it warm
    starts that reduction.  ``coeffs`` and the last bits of ``length`` may
    then differ from a cold start's where float lengths tie.
    """

    coeffs: tuple[int, ...]
    length: float
    transform: np.ndarray


class ThickRegion(enum.Enum):
    """Trichotomy for membership in the eps-thick part of the lattice space."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


_REGIONS = np.array([ThickRegion.OUTSIDE, ThickRegion.BOUNDARY, ThickRegion.INSIDE], dtype=object)


def _dot(a, b) -> float:
    """Float dot product added left to right: since Python 3.12 the builtin
    sum compensates float sums, which would tie T's bits to the interpreter."""
    return functools.reduce(operator.add, map(operator.mul, a, b), 0.0)


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
            m = _dot(b, star[j]) / norms2[j]
            mu[i].append(m)
            v = [x - m * y for x, y in zip(v, star[j])]
        star.append(v)
        norms2.append(_dot(v, v))
    return mu, norms2


def reduce_basis(basis: LatticeBasis, start=None) -> np.ndarray:
    """LLL-style reduction of the columns; returns only the change of basis T.

    T is a k x k object array of exact Python integers (entries can exceed
    int64 for very skewed bases) whose column j holds the coefficients of
    reduced column j in the input basis; det T = +-1, unoriented, since the
    box scan is symmetric under c -> -c.  The k <= MAX_DIM float columns are
    lists of Python floats and only a preconditioner: they pile up the
    rounding of the column operations, so callers rebuild the reduced
    columns from the input, as _enumerate_shortest does.  One Gram-Schmidt
    runs per step, and size reduction updates mu in place.

    ``start``, a k x k integer transform with det +-1 (the caller's
    contract; typically the T of a nearby lattice), is where T starts: the
    float columns start as input . start, rebuilt with _combine's ordered
    sums, never carried over from another lattice.  None starts from the
    identity, whose ordered sums give the input columns exactly.
    """
    k = basis.k
    if start is None:
        start = np.identity(k, dtype=int)
    elif np.shape(start) != (k, k):
        raise ParameterError("start must be a %d x %d transform, got shape %r"
                             % (k, k, np.shape(start)))
    S = np.asarray(start, dtype=object)
    B = _combine(basis.columns[:, :, None], S.astype(float)).T.tolist()  # B[j] is column j
    T = [[int(x) for x in col] for col in S.T.tolist()]  # T[j]: coefficients of B[j]

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
    return np.array(T, dtype=object).T.copy()


def _canonical_coeffs(c):
    """Flip sign so the first nonzero coefficient is positive."""
    sign = next((1 if x > 0 else -1 for x in c if x != 0), 1)
    return tuple(sign * x for x in c)


@functools.lru_cache(maxsize=_BOX_CACHE)
def _half_box(bounds: tuple, part: int) -> np.ndarray:
    """Slice ``part`` (_BOX_SLICE rows) of the integer vectors c, |c_i| <= bounds[i],
    whose first nonzero entry is positive, one of each +-pair: in the C order
    of the box, the entries after its center.  Read-only floats."""
    shape = tuple(2 * b + 1 for b in bounds)
    first = math.prod(shape) // 2 + 1 + part * _BOX_SLICE
    flat = np.arange(first, min(first + _BOX_SLICE, math.prod(shape)))
    box = np.stack(np.unravel_index(flat, shape), axis=1) - np.array(bounds, dtype=float)
    box.setflags(write=False)
    return box


def _enumerate_shortest(A, U):
    """Exact scan of a box of integer coefficients c of the reduced columns
    B = A U, A the input columns and U a reduction's transform (integers or
    integer-valued floats); returns the winner's sign-canonical coefficients
    in the input basis, U @ c, and their length |A @ (U @ c)|_inf.

    B is rebuilt from A as the batch kernel rebuilds its stack, column j the
    ordered sum of A[:, c] U[c, j] over c (_combine), so no rounding of the
    reduction's column operations reaches the ranking.  With L the least sup
    norm of a column and d_i the rows of B^-1, a vector v = B c with
    |v|_inf <= L has |c_i| = |d_i . v| <= |d_i|_1 L (the batch kernel's bound,
    row by row): the box |c_i| <= floor(|d_i|_1 L) holds every vector as short
    as that column.  _BOX_SLACK covers the rounding of B^-1, of order
    k cond(B) 2^-53.  The half box (c and -c have one length) is scanned in
    slices: at most _BOX_CACHE + 1 slices of _BOX_SLICE x k floats (13 MB at
    k = 6) are held whatever the box size.  Past NODE_CAP candidates,
    CapacityError.  Ties go to the lexicographically least of those
    coefficients.
    """
    B = _combine(A[:, :, None], U.astype(float))
    L = np.abs(B).max(axis=0).min()
    row_norms = np.abs(np.linalg.inv(B)).sum(axis=1)
    bounds = tuple(int(x) for x in row_norms * L * (1.0 + _BOX_SLACK))
    size = math.prod(2 * b + 1 for b in bounds) // 2
    if size > NODE_CAP:
        raise CapacityError("shortest-vector enumeration exceeded node cap %d" % NODE_CAP)
    best_len, ties = math.inf, []
    for part in range(-(-size // _BOX_SLICE)):
        C = _half_box(bounds, part)
        lengths = np.abs(_combine(B[:, :, None], C.T)).max(axis=0)
        least = lengths.min()
        if least < best_len:
            best_len, ties = least, []
        ties += C[lengths == best_len].astype(int).tolist()
    rows = [[int(x) for x in row] for row in U.tolist()]
    coeffs = min(_canonical_coeffs([sum(map(operator.mul, r, c)) for r in rows]) for c in ties)
    return coeffs, float(np.abs(A @ np.array(coeffs, dtype=float)).max())


def shortest_vector_supnorm(basis: LatticeBasis, start=None) -> ShortestVectorResult:
    """Globally minimal nonzero lattice vector in the sup norm.

    ``start`` goes to reduce_basis: any unimodular start gives a certified
    minimum, and the T of the previous lattice on a family saves steps.
    Among float near-ties the winner may depend on the start (module
    docstring).
    """
    T = reduce_basis(basis, start)
    return ShortestVectorResult(*_enumerate_shortest(basis.columns, T), T)


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
    start=None,
) -> tuple[ShortestVectorResult, ThickRegion]:
    """The shortest vector and the trichotomy region of its length against eps;
    ``start`` as in shortest_vector_supnorm."""
    sv = shortest_vector_supnorm(basis, start)
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


def _lll_batch(B: np.ndarray, start=None) -> np.ndarray:
    """LLL reduction (delta = _LLL_DELTA) of every basis in a stack (k, k, N),
    lattice index last; returns the transforms T (k, k, N) as reduce_basis does.

    ``start``, a (k, k, N) stack of integer-valued transforms with det +-1
    in the same layout (typically the T of each basis's previous lattice),
    is where T starts, as in reduce_basis; None starts from the identity.
    Every column is rebuilt as _combine(B, T) at every step, so only the
    integers carry over.

    A sweep size-reduces columns 1..k-1 in turn and swaps each with its
    predecessor where the Lovasz condition fails.  A basis is done after a
    sweep that swaps nothing: each column was then size-reduced against
    final predecessors, and the Lovasz condition holds everywhere.
    Size-reduction alone must not keep a basis active: with mu near +-1/2,
    rint of the recomputed mu can flip sign in every sweep.  Sweeps update
    T, integer-valued floats exact below 2^53, not vectors: float column
    operations pile up rounding that, on skewed bases, leaves the lattice.
    B and T hold active bases only: after each sweep the done ones go to
    the output and `take` drops them.  _combine fixes the order of sums; einsum's varies with N.
    """
    k, n = B.shape[0], B.shape[2]
    if start is None:
        T = [np.repeat(row[:, None], n, axis=1) for row in np.eye(k)]  # coefficients of column j
    elif np.shape(start) != B.shape:
        raise ParameterError("start must be a stack of shape %r, got %r"
                             % (B.shape, np.shape(start)))
    else:
        T = [np.array(start[:, j], dtype=float) for j in range(k)]
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
        out[:, :, index[done]] = np.stack([u.take(done, axis=1) for u in T], 1)
        B, T, index = B.take(keep, axis=2), [u.take(keep, axis=1) for u in T], index[keep]
    raise DegenerateBasisError("batched reduction did not converge within %d sweeps"
                               % _REDUCE_ITER_CAP)


def shortest_supnorm_batch(bases: np.ndarray, cap: float = math.inf) -> np.ndarray:
    """Sup-norm first minimum of each basis in a stack of shape (N, k, k).

    Values up to ``cap`` are exact; above cap, a value only shows that the
    minimum exceeds cap.  LLL gives each basis its transform T, and R = B T
    is rebuilt with ordered sums from a second C-order copy of the chunk
    (holding the first through _lll_batch, which drops it sweep by sweep,
    would raise the peak memory; a strided R is slow).  L is the least
    length of R over coefficients in {-1, 0, 1}^k, and a vector v of length
    <= min(L, cap) has coefficients c = R^-1 v with |c|_inf <= ||R^-1||_inf
    min(L, cap).  Where that bound is below 2, c was scanned; elsewhere
    _enumerate_shortest decides from the same T, on a C-order B[i] (a
    strided matmul adds in another order).  At k = 2 the bound is at most
    sqrt(2) |u| |v| <= 1.64 for a reduced pair.  Chunks of _CHUNK bases keep
    the arrays in cache.  With ordered sums and per-basis steps, a value
    does not depend on the rest of the stack.  The stack is only read: it
    is never copied whole, nor written.

    The reduction behind it (_shortest_batch) can start each basis from
    any unimodular T: the minimum up to cap is certified whatever the
    start, since the bound above holds for any basis R of the lattice.
    """
    return np.concatenate([lam for lam, _ in _shortest_chunks(bases, cap)])


def _shortest_batch(bases: np.ndarray, cap: float, start=None) -> tuple:
    """(shortest_supnorm_batch's values, the transforms T (k, k, N) that
    certified them); ``start`` (k, k, N) goes to _lll_batch chunk by chunk."""
    lams, transforms = zip(*_shortest_chunks(bases, cap, start))
    return np.concatenate(lams), np.concatenate(transforms, axis=2)


def _shortest_chunks(bases: np.ndarray, cap: float, start=None):
    """(values, transforms) of the stack, one chunk of _CHUNK bases at a time."""
    B = np.asarray(bases, dtype=float)
    if not (B.ndim == 3 and B.shape[1] == B.shape[2] and 2 <= B.shape[1] <= MAX_DIM
            and np.all(np.isfinite(B))):
        raise ParameterError("expected finite bases of shape (N, k, k), 2 <= k <= %d, "
                             "got shape %r" % (MAX_DIM, B.shape))
    for i in range(0, max(B.shape[0], 1), _CHUNK):
        yield _shortest_chunk(B[i:i + _CHUNK], cap,
                              None if start is None else start[:, :, i:i + _CHUNK])


def _shortest_chunk(B: np.ndarray, cap: float, start) -> tuple:
    """(values, transforms) of one chunk; its temporaries go when it returns."""
    k = B.shape[1]
    T = _lll_batch(B.transpose(1, 2, 0).copy(), start)
    R = _combine(B.transpose(1, 2, 0).copy()[:, :, None], T)
    lam = np.full(B.shape[0], math.inf)
    for c in _half_box((1,) * k, 0):
        np.minimum(lam, np.abs(_combine(R, c)).max(axis=0), out=lam)
    # the rows of R^-1 are the dual basis d_i = b*_i / |b*_i|^2 - sum_{j>i} mu_ji d_j
    mu, norms2, star = _gram_schmidt_batch([R[:, j] for j in range(k)])
    dual = []
    for i in reversed(range(k)):
        dual.insert(0, star[i] / norms2[i] - sum(mu[j, i] * d for j, d in enumerate(dual, i + 1)))
    inverse_norm = np.max([np.abs(d).sum(axis=0) for d in dual], axis=0)
    for i in np.flatnonzero(~(inverse_norm * np.minimum(lam, cap) < 2.0)):
        lam[i] = _enumerate_shortest(np.ascontiguousarray(B[i]), T[:, :, i])[1]
    return lam, T


def shortest_supnorm_k2_batch(bases: np.ndarray) -> np.ndarray:
    """shortest_supnorm_batch of a stack of 2x2 bases, shape (N, 2, 2)."""
    if np.shape(bases)[1:] != (2, 2):
        raise ParameterError("expected shape (N, 2, 2), got %r" % (np.shape(bases),))
    return shortest_supnorm_batch(bases)
