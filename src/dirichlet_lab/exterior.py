"""Exterior-algebra calculus for the one-form case (k = n + 1).

Coordinates are indexed 0..n; the weight vector is (t_0, t_1..t_n)
with t_0 equal to the sum of the rest, so the diagonal flow acts on a
basis wedge e_I through the single exponent

    t_I = t_0 - sum(t_i for i in I, i != 0)   when 0 in I,
    t_I = -sum(t_i for i in I)                otherwise.

The shear y fixes e_0 and sends e_i to e_i + y_i e_0, and its exterior
action mixes a wedge only into index sets containing 0.  Pairings
<g_t tau(y) w, e_I> are affine in y; the certificate operation exhibits
an affine coefficient of size at least e^{max(t)/n} whenever w has a
nonzero coordinate avoiding index 0 - the quantitative heart of the
nondivergence argument.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ParameterError
from .flows import WeightVector
from .lattice import MAX_DIM


@lru_cache(maxsize=None)
def index_sets(k: int, grade: int) -> tuple[tuple[int, ...], ...]:
    """All sorted index subsets of {0..k-1} of the given size, lex order."""
    return tuple(itertools.combinations(range(k), grade))


def _check_index_set(I, k: int) -> tuple[int, ...]:
    I = tuple(int(i) for i in I)
    if list(I) != sorted(set(I)):
        raise ParameterError("index set must be strictly increasing, got %r" % (I,))
    if I and not (0 <= I[0] and I[-1] < k):
        raise ParameterError("index set %r out of range for k=%d" % (I, k))
    return I


def _check_weights(t: WeightVector, k: int) -> None:
    if t.m != 1:
        raise ParameterError("exterior calculus is built for one form (m=1)")
    if t.k != k:
        raise ParameterError("weights have k=%d but the vector lives in k=%d" % (t.k, k))


def weight_exponent(t: WeightVector, I) -> float:
    """The flow exponent t_I attached to a basis wedge e_I."""
    _check_weights(t, t.k)
    I = _check_index_set(I, t.k)
    if not I:
        raise ParameterError("index set must be nonempty")
    if 0 in I:
        return t.t[0] - _sum(t.t[i] for i in I if i != 0)
    return -_sum(t.t[i] for i in I)


def _sum(values) -> float:
    """Float sum added left to right: since Python 3.12 the builtin sum
    compensates float sums, which would tie t_I's bits to the interpreter."""
    return reduce(operator.add, values, 0.0)


@dataclass(frozen=True, eq=False)
class ExteriorVector:
    """Grade-j element of the exterior power, coefficients in lex subset order."""

    k: int
    grade: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (2 <= self.k <= MAX_DIM):
            raise ParameterError("k must be in [2, %d]" % MAX_DIM)
        if not (1 <= self.grade <= self.k - 1):
            raise ParameterError("grade must be in [1, %d]" % (self.k - 1))
        c = np.asarray(self.coeffs, dtype=float)
        want = len(index_sets(self.k, self.grade))
        if c.shape != (want,):
            raise ParameterError("need %d coefficients for k=%d grade=%d"
                                 % (want, self.k, self.grade))
        if not np.all(np.isfinite(c)):
            raise ParameterError("coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_map(cls, k: int, grade: int, entries: dict) -> "ExteriorVector":
        sets = index_sets(k, grade)
        pos = {I: idx for idx, I in enumerate(sets)}
        c = np.zeros(len(sets))
        for I, w in entries.items():
            I = _check_index_set(I, k)
            if len(I) != grade:
                raise ParameterError("index set %r has wrong size for grade %d"
                                     % (I, grade))
            c[pos[I]] = float(w)
        return cls(k, grade, c)

    @classmethod
    def unit(cls, k: int, I) -> "ExteriorVector":
        I = tuple(I)
        return cls.from_map(k, len(I), {I: 1.0})

    def coefficient(self, I) -> float:
        I = _check_index_set(I, self.k)
        return float(self.coeffs[index_sets(self.k, self.grade).index(I)])


def flow_action(t: WeightVector, w: ExteriorVector) -> ExteriorVector:
    """Diagonal-flow action: each coefficient scales by e^{t_I}."""
    _check_weights(t, w.k)
    sets = index_sets(w.k, w.grade)
    scale = np.array([math.exp(weight_exponent(t, I)) for I in sets])
    return ExteriorVector(w.k, w.grade, w.coeffs * scale)


def _shear_sign(I: tuple[int, ...], j: int) -> int:
    # parity of moving e_0 (inserted at the slot of j) to the front
    return -1 if sum(1 for l in I if l != 0 and l < j) % 2 else 1


def shear_action(y, w: ExteriorVector) -> ExteriorVector:
    """Exterior action of the unipotent map e_0 -> e_0, e_i -> e_i + y_i e_0.

    Coefficients over index sets avoiding 0 are untouched; a set I
    containing 0 picks up sign * y_j * w[(I - {0}) + {j}] for every
    j outside I, the sign being the wedge-reordering parity.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape != (w.k - 1,):
        raise ParameterError("y must have %d entries" % (w.k - 1))
    sets = index_sets(w.k, w.grade)
    pos = {I: idx for idx, I in enumerate(sets)}
    out = np.array(w.coeffs, dtype=float)
    for idx, I in enumerate(sets):
        if 0 not in I:
            continue
        rest = tuple(i for i in I if i != 0)
        acc = 0.0
        for j in range(1, w.k):
            if j in I:
                continue
            source = tuple(sorted(rest + (j,)))
            acc += _shear_sign(I, j) * y[j - 1] * w.coeffs[pos[source]]
        out[idx] += acc
    return ExteriorVector(w.k, w.grade, out)


def affine_pairing(w: ExteriorVector, t: WeightVector, I, y) -> float:
    """<g_t tau(y) w, e_I>: affine in y for fixed w, t, I."""
    moved = flow_action(t, shear_action(y, w))
    return moved.coefficient(I)


# ---------------------------------------------------------------------------
# big-coefficient certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientCertificate:
    """One affine coefficient of y -> <g_t tau(y) w, e_I> of certified size.

    value is the signed coefficient of y_{coeff_index}; its magnitude is
    at least e^{norm(t)/n} whenever w has integer coefficients.
    """

    index_set: tuple[int, ...]
    coeff_index: int
    value: float
    lower_bound: float


def big_coefficient_certificate(w: ExteriorVector, t: WeightVector) -> CoefficientCertificate:
    """Exhibit a large affine coefficient of the flowed, sheared pairing.

    Requires some nonzero coordinate w_J with 0 not in J; picking the
    heaviest direction l = argmax t_i and I = (J + {0}) - {i} makes the
    coefficient of y_i equal +-e^{t_I} w_J with t_I >= t_l, which beats
    e^{norm(t)/n} for integer w.  Raises ParameterError when every
    nonzero coordinate touches index 0 (the hypothesis fails).
    """
    _check_weights(t, w.k)
    n = w.k - 1
    sets = index_sets(w.k, w.grade)
    live = [(I, w.coeffs[idx]) for idx, I in enumerate(sets)
            if 0 not in I and w.coeffs[idx] != 0.0]
    if not live:
        raise ParameterError(
            "certificate needs a nonzero coordinate avoiding index 0")
    ell = max(range(1, w.k), key=lambda i: t.t[i])
    with_ell = [(J, c) for J, c in live if ell in J]
    if with_ell:
        J, c = max(with_ell, key=lambda item: abs(item[1]))
        i = ell
    else:
        J, c = max(live, key=lambda item: abs(item[1]))
        i = max(J, key=lambda idx: t.t[idx])
    I = tuple(sorted((set(J) - {i}) | {0}))
    sign = _shear_sign(I, i)
    value = math.exp(weight_exponent(t, I)) * sign * float(c)
    return CoefficientCertificate(
        index_set=I,
        coeff_index=i,
        value=value,
        lower_bound=math.exp(t.norm / n),
    )
