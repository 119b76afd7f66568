"""Independent reference implementations used only by the test suite.

These are deliberately naive (full grid scans, direct minor expansions)
and share no code with the production paths they check.
"""

from __future__ import annotations

import builtins
import itertools
import math
from fractions import Fraction

import numpy as np


def compensated_sum(items, start=0):
    """The builtin sum as Python 3.12 and later run it: float items are added
    with compensation (math.fsum stands in for its Neumaier sum)."""
    items = list(items)
    if items and all(type(x) is float for x in items):
        return math.fsum([start, *items])
    return builtins.sum(items, start)


def brute_force_shortest_supnorm(columns, coeff_bound: int = 25):
    """Scan every integer coefficient vector with |c_i| <= coeff_bound.

    Returns (coeffs, length) with the same sign/tie policy as the
    production enumerator: among minimizers, flip signs so the first
    nonzero coefficient is positive, then take the lexicographically
    smallest coefficient tuple.
    """
    B = np.asarray(columns, dtype=float)
    k = B.shape[0]
    axes = [np.arange(-coeff_bound, coeff_bound + 1)] * k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    grid = grid[np.any(grid != 0, axis=1)]
    lengths = np.max(np.abs(grid @ B.T), axis=1)
    best = float(np.min(lengths))
    mask = lengths == best
    cands = []
    for c in grid[mask]:
        c = tuple(int(x) for x in c)
        first = next(x for x in c if x != 0)
        if first < 0:
            c = tuple(-x for x in c)
        cands.append(c)
    return min(cands), best


def ba_quality_scan(Y, r, s, q_max):
    """ba_quality as one loop over the whole box |q|_sup <= q_max, keeping
    the q whose first nonzero coordinate is positive."""
    best = math.inf
    for q in itertools.product(range(-q_max, q_max + 1), repeat=len(s)):
        if next((x for x in q if x), 0) <= 0:
            continue
        R = np.asarray(Y, dtype=float) @ np.array(q, dtype=float)
        left = max(float(d) ** (1.0 / ri) for d, ri in zip(R - np.floor(R), r))
        right = max(abs(x) ** (1.0 / sj) for x, sj in zip(q, s))
        best = min(best, left * right)
    return best


def integer_det(M) -> int:
    """Exact determinant of a small integer matrix, by cofactor expansion
    along the first row."""
    A = [[int(x) for x in row] for row in M]
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * integer_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)) if A[0][j])


def exact_supnorm(columns, coeffs) -> Fraction:
    """Sup norm of columns @ coeffs, summed exactly over the float entries."""
    return max(abs(sum(Fraction(float(a)) * int(c) for a, c in zip(row, coeffs)))
               for row in np.asarray(columns, dtype=float))


def wedge_coordinates(vectors):
    """Plücker coordinates of v_1 ^ ... ^ v_j as a dict over row index sets.

    ``vectors`` is a k x j matrix (columns are the factors); coordinates
    are the j x j minors indexed by sorted row subsets.
    """
    M = np.asarray(vectors, dtype=float)
    k, j = M.shape
    out = {}
    for rows in itertools.combinations(range(k), j):
        out[rows] = float(np.linalg.det(M[np.array(rows), :])) if j > 0 else 1.0
    return out


def exterior_matrix(A, grade):
    """Matrix of the grade-th exterior power of A in the e_I basis.

    Basis index sets are sorted subsets of {0..k-1} in lexicographic
    order; entry [I, J] = det of the I x J submatrix of A.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[0]
    subsets = list(itertools.combinations(range(k), grade))
    n = len(subsets)
    out = np.zeros((n, n))
    for a, I in enumerate(subsets):
        for b, J in enumerate(subsets):
            out[a, b] = np.linalg.det(A[np.ix_(I, J)])
    return subsets, out


def continued_fraction_convergents(x: Fraction) -> list:
    """Convergents (p, q) of a Fraction x >= 0: partial quotients by floor and
    reciprocal, each convergent the truncated continued fraction evaluated
    from the bottom up as a Fraction (in lowest terms, as convergents are)."""
    digits, r = [], x
    while True:
        digits.append(math.floor(r))
        if r == digits[-1]:
            break
        r = 1 / (r - digits[-1])
    out = []
    for n in range(1, len(digits) + 1):
        value = Fraction(digits[n - 1])
        for a in reversed(digits[: n - 1]):
            value = a + 1 / value
        out.append((value.numerator, value.denominator))
    return out


def near_vector_scan(basis, y1, y2, s, u, eps):
    """The counterexample's near-vector scan as one scalar loop over q.

    Returns (found_q, found_dist): the first q >= 1 with q e^-(s+u) < eps
    whose flowed lattice vector sits within sup-distance eps of e^u e_1,
    or (0, inf) when none does.
    """
    target = np.array([math.exp(u), 0.0, 0.0])
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
    return found_q, found_dist


def counterexample_cases(eps, u, s_list, systems, seed):
    """The counterexample as one scalar loop over (system, s).

    Returns (cases, all_pass, max_lambda1), the cases as dicts in field
    order.  The lattice, its shortest vector and the region that labels
    lambda1_below_eps come from the package's flowed_basis and
    shortest_with_region, one lattice at a time; the
    primitive check solves each basis on its own and the near vector comes
    from near_vector_scan.  So this checks how the experiment stacks and
    orders its work, not the lattice kernel.
    """
    from dirichlet_lab.flows import WeightVector, flowed_basis, random_forms
    from dirichlet_lab.lattice import ThickRegion, shortest_with_region

    eu = math.exp(u)
    target = np.array([eu, 0.0, 0.0])
    cases = []
    for index in range(systems):
        Y = random_forms(seed + index, 2, 1, scale=3.0)
        y1, y2 = float(Y.Y[0, 0]), float(Y.Y[1, 0])
        for s in s_list:
            s = float(s)
            basis = flowed_basis(Y, WeightVector(2, 1, (u, s, s + u)))
            coeff = np.rint(np.linalg.solve(basis.columns, target)).astype(np.int64)
            residual = float(np.max(np.abs(basis.columns @ coeff - target)))
            c0, c1, c2 = (int(c) for c in coeff)
            primitive_ok = residual <= 1e-9 * eu and math.gcd(math.gcd(c0, c1), c2) == 1
            sv, region = shortest_with_region(basis, eps=eps)
            found_q, found_dist = near_vector_scan(basis, y1, y2, s, u, eps)
            cases.append({"system_index": index, "s": s, "primitive_ok": primitive_ok,
                          "lambda1": sv.length,
                          "lambda1_below_eps": region is ThickRegion.OUTSIDE,
                          "near_vector_distance": found_dist, "near_vector_q": found_q})
    all_pass = all(c["primitive_ok"] and c["lambda1_below_eps"] and c["near_vector_q"] != 0
                   for c in cases)
    return cases, all_pass, max([0.0] + [c["lambda1"] for c in cases])


def invariant_thin_grid_k2(r: float, n: int = 400) -> float:
    """mu(lambda1 < r) at k = 2 and r < 1, from its definition on a grid.

    mu = E[N] - E[C(N, 2)] for N the +-pairs of primitive vectors in the
    open square S_r: E[N] = 12 r^2 / pi^2 (Siegel), E[C(N, 2)] =
    I2 / (4 zeta(2)) with I2 the integral over v in S_r of the length of
    {s : w0(v) + s v in S_r}, w0(v) = (-v2, v1) / |v|^2.  The integrand is
    invariant under the symmetries of the square, so the n x n midpoint
    grid covers the quadrant v1, v2 > 0.
    """
    h = r / n
    v1, v2 = np.meshgrid(h * (np.arange(n) + 0.5), h * (np.arange(n) + 0.5), indexing="ij")
    sq = v1 * v1 + v2 * v2
    # per coordinate, the s at which w0 + s v meets -r and r, in order
    ends = [np.sort([(side - w) / v for side in (-r, r)], axis=0)
            for w, v in ((-v2 / sq, v1), (v1 / sq, v2))]
    length = np.minimum(ends[0][1], ends[1][1]) - np.maximum(ends[0][0], ends[1][0])
    i2 = 4.0 * h * h * float(np.sum(np.maximum(length, 0.0)))
    return (12.0 * r * r - 1.5 * i2) / math.pi ** 2
