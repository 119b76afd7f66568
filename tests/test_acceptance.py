"""End-to-end acceptance gate.

Each test exercises one shipping criterion at its stated parameters and
tolerance, times itself against the stated budget, and emits a single
visible verdict line (criterion N PASS/FAIL) regardless of pytest's
capture mode.  Keep these independent of the unit suites: everything a
criterion needs is constructed here from the public API.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from dirichlet_lab.cli import main as cli_main
from dirichlet_lab.experiments import (
    equidist_test_k2,
    haar_sample_k2,
    no_drift_counterexample,
    nondiv_decay_scan,
    singular_profile,
)
from dirichlet_lab.exterior import (
    ExteriorVector,
    affine_pairing,
    big_coefficient_certificate,
    flow_action,
    index_sets,
    shear_action,
)
from dirichlet_lab.flows import (
    LinearFormSystem,
    Solvability,
    WeightVector,
    ba_quality,
    dirichlet_solvable_direct,
    dirichlet_solvable_lattice,
    flow_matrix,
    golden_system,
    liouville_system,
)
from dirichlet_lab.lattice import (
    LatticeBasis,
    random_unimodular,
    shortest_vector_supnorm,
)
from dirichlet_lab.measures import (
    Ball,
    LebesgueBox,
    MapSpec,
    SelfSimilarIFS,
    _binomial_half_width,
    cgood_empirical,
    federer_empirical,
    nonplanar_test,
)
from oracles import exterior_matrix

LEB01 = LebesgueBox((0.0,), (1.0,))
UNIT = Ball.interval(0.0, 1.0)
PLANAR = MapSpec(1, 2, (
    ((1, (1,)),),
    ((2, (1,)), (1, (0,))),
))  # affine image (x, 2x+1)


@pytest.fixture
def verdict(capsys):
    """Print one live pass/fail line per criterion, then assert it."""

    def emit(num, label, ok, detail=""):
        line = "criterion %d %-38s %s" % (num, label + ":", "PASS" if ok else "FAIL")
        if detail:
            line += "  [%s]" % detail
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
        return ok

    return emit


def _one_form_weights(parts):
    parts = tuple(float(p) for p in parts)
    return WeightVector(1, len(parts), (sum(parts),) + parts)


def _shear_matrix(y):
    y = np.asarray(y, dtype=float)
    M = np.eye(y.size + 1)
    M[0, 1:] = y
    return M


@lru_cache(maxsize=1)
def _random_cases():
    """500 pseudo-random (Y, t, eps) with m,n in {1,2}, floor(t) <= 6.

    Back weights are scaled so both sides share the same sum; entry
    ranges keep every q-box comfortably inside the scan budget.
    """
    rng = np.random.default_rng(20260817)
    cases = []
    while len(cases) < 500:
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        Y = LinearFormSystem(rng.uniform(-3.0, 3.0, size=(m, n)))
        front = rng.uniform(0.5, 2.5, size=m)
        back = rng.uniform(0.5, 2.5, size=n)
        back *= front.sum() / back.sum()
        t = WeightVector(m, n, tuple(front) + tuple(back))
        eps = float(rng.uniform(0.2, 0.95))
        cases.append((Y, t, eps))
    return tuple(cases)


def test_criterion_1_dual_route_agreement(verdict):
    start = time.monotonic()
    boundary = 0
    mismatches = 0
    for Y, t, eps in _random_cases():
        status = dirichlet_solvable_lattice(Y, t, eps, margin=1e-9)
        if status is Solvability.BOUNDARY:
            boundary += 1
            continue
        witness = dirichlet_solvable_direct(Y, t, eps)
        if (witness is not None) != (status is Solvability.SOLVABLE):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and boundary < 5 and elapsed < 60.0
    verdict(1, "dual-route solvability agreement", ok,
            "mismatches=%d boundary=%d/500 %.1fs" % (mismatches, boundary, elapsed))


def test_criterion_2_everything_solvable_at_eps_one(verdict):
    start = time.monotonic()
    unsolved = sum(
        1 for Y, t, eps in _random_cases()
        if dirichlet_solvable_direct(Y, t, 1.0, weak_q=True) is None
    )

    lam_max = 0.0
    thick_hits = 0
    k2 = haar_sample_k2(seed=5, count=500).matrices
    bases = [LatticeBasis(k2[i]) for i in range(500)]
    bases += [random_unimodular(seed, 3, spread=2.0) for seed in range(500)]
    for basis in bases:
        lam = shortest_vector_supnorm(basis).length
        lam_max = max(lam_max, lam)
        thick_hits += lam >= 1.01
    elapsed = time.monotonic() - start
    ok = (unsolved == 0 and lam_max <= 1.0 + 1e-9 and thick_hits == 0
          and elapsed < 30.0)
    verdict(2, "weak form solvable at eps=1", ok,
            "unsolved=%d/500 max_lambda1=%.9f thick_hits=%d/1000 %.1fs"
            % (unsolved, lam_max, thick_hits, elapsed))


def test_criterion_3_exterior_actions_and_certificate(verdict):
    start = time.monotonic()
    rng = np.random.default_rng(20260303)
    flow_err = shear_err = mid_err = 0.0
    cert_ok = 0
    for _ in range(200):
        k = int(rng.integers(3, 5))
        grade = int(rng.integers(1, k))
        sets = index_sets(k, grade)
        t = _one_form_weights(rng.uniform(0.2, 2.5, size=k - 1))
        w = ExteriorVector(k, grade, rng.uniform(-3.0, 3.0, size=len(sets)))
        y = rng.uniform(-2.0, 2.0, size=k - 1)

        _, L = exterior_matrix(flow_matrix(t), grade)
        want = L @ np.asarray(w.coeffs)
        got = np.asarray(flow_action(t, w).coeffs)
        flow_err = max(flow_err, float(
            np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))))

        _, L = exterior_matrix(_shear_matrix(y), grade)
        want = L @ np.asarray(w.coeffs)
        got = np.asarray(shear_action(y, w).coeffs)
        shear_err = max(shear_err, float(
            np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))))

        I = sets[int(rng.integers(len(sets)))]
        y1 = rng.uniform(-2.0, 2.0, size=k - 1)
        y2 = rng.uniform(-2.0, 2.0, size=k - 1)
        mid = affine_pairing(w, t, I, (y1 + y2) / 2.0)
        avg = 0.5 * (affine_pairing(w, t, I, y1)
                     + affine_pairing(w, t, I, y2))
        mid_err = max(mid_err, abs(mid - avg) / max(1.0, abs(avg)))

        coeffs = rng.integers(-6, 7, size=len(sets)).astype(float)
        live = [i for i, J in enumerate(sets) if 0 not in J]
        if all(coeffs[i] == 0.0 for i in live):
            coeffs[live[0]] = float(rng.integers(1, 7))
        cert = big_coefficient_certificate(ExteriorVector(k, grade, coeffs), t)
        cert_ok += abs(cert.value) >= cert.lower_bound * (1.0 - 1e-9)
    elapsed = time.monotonic() - start
    ok = (flow_err <= 1e-10 and shear_err <= 1e-10 and mid_err <= 1e-12
          and cert_ok == 200 and elapsed < 10.0)
    verdict(3, "exterior actions and certificate", ok,
            "flow_err=%.1e shear_err=%.1e mid_err=%.1e certs=%d/200 %.1fs"
            % (flow_err, shear_err, mid_err, cert_ok, elapsed))


def test_criterion_4_no_drift_counterexample(verdict):
    start = time.monotonic()
    record = no_drift_counterexample(0.9, math.log(1.5), (3, 4, 5, 6, 7, 8),
                                     systems=100, seed=0)
    elapsed = time.monotonic() - start
    cases = record.cases
    three_checks = all(
        c.primitive_ok and c.lambda1_below_eps and c.near_vector_distance < 0.9
        for c in cases
    )
    ok = (record.all_pass and three_checks and len(cases) == 600
          and elapsed < 60.0)
    verdict(4, "counterexample rays improve all", ok,
            "cases=%d all_pass=%s max_lambda1=%.6f %.1fs"
            % (len(cases), record.all_pass, record.max_lambda1, elapsed))


def test_criterion_5_singular_and_ba_profiles(verdict):
    start = time.monotonic()
    grid30 = tuple(np.linspace(0.0, 30.0, 241)[1:])
    grid20 = tuple(np.linspace(0.0, 20.0, 161)[1:])
    golden = golden_system()
    lio = singular_profile(liouville_system(5), grid30)
    gold = singular_profile(golden, grid20)
    quality = ba_quality(golden, (1.0,), (1.0,), 1000)
    elapsed = time.monotonic() - start
    lio_min = min(lio.values)
    gold_min = min(gold.values)
    ok = (lio_min <= 0.01 and gold_min >= 0.6 and 0.44 <= quality <= 0.45
          and elapsed < 30.0)
    verdict(5, "singular vs badly-approximable", ok,
            "liouville_min=%.2e golden_min=%.4f ba=%.5f %.1fs"
            % (lio_min, gold_min, quality, elapsed))


def test_criterion_6_escape_decay_uniform_in_t(verdict):
    start = time.monotonic()
    t_list = (
        WeightVector(1, 2, (6.0, 3.0, 3.0)),
        WeightVector(1, 2, (8.0, 4.0, 4.0)),
        WeightVector(1, 2, (10.0, 5.0, 5.0)),
    )
    eps_grid = (0.05, 0.1, 0.2, 0.4)
    scan = nondiv_decay_scan(MapSpec.veronese(2), LEB01, Ball((0.5,), 0.75),
                             t_list, eps_grid, samples=20_000, seed=1)
    elapsed = time.monotonic() - start
    fractions = [c.fraction for c in scan.cells]
    monotone = all(
        fractions[4 * i + j] <= fractions[4 * i + j + 1]
        for i in range(3) for j in range(3)
    )
    slopes = [scan.slopes[t.t] for t in t_list]
    # alpha_theory = 1/(d l) is the Kleinbock-Margulis nondivergence exponent
    slopes_ok = (scan.alpha is not None and scan.alpha >= 0.4
                 and scan.alpha >= scan.alpha_theory
                 and all(s is not None and s >= 0.4 for s in slopes))
    span = max(scan.column_span)
    ok = monotone and slopes_ok and span <= 0.1 and elapsed < 300.0
    verdict(6, "escape decay uniform over t", ok,
            "alpha=%.3f alpha_theory=%.3f slopes=%.2f..%.2f span=%.4f monotone=%s %.1fs"
            % (scan.alpha, scan.alpha_theory, min(slopes), max(slopes), span,
               monotone, elapsed))


def test_criterion_7_horocycle_equidistribution(verdict):
    start = time.monotonic()
    reports = [
        equidist_test_k2((0.0, 1.0), y0, 9.0, eps, samples=100_000, seed=0)
        for eps in (0.5, 0.8, 0.9) for y0 in (0.0, 0.3, 0.7)
    ]
    elapsed = time.monotonic() - start
    # |discrepancy| against the exact invariant value (1 - 3/pi^2 at eps 0.5,
    # the closed form above 1/sqrt(2)), in ~95% binomial half-widths of the
    # translate estimate (about 0.0029 at eps 0.5)
    worst = max(abs(r.discrepancy) / _binomial_half_width(r.translate_estimate,
                                                          r.translate_n)
                for r in reports)
    ok = worst <= 2.0 and elapsed < 180.0
    verdict(7, "flowed translate equidistributes", ok,
            "worst |discrepancy| = %.2f half-widths over eps=0.5,0.8,0.9 x y0=0,0.3,0.7 %.1fs"
            % (worst, elapsed))


def test_criterion_8_empirical_constants(verdict):
    start = time.monotonic()
    cg = cgood_empirical(lambda x: x, LEB01, UNIT, 1.0,
                         (0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
                         samples=100_000, seed=1)
    fed1 = federer_empirical(LEB01, Ball((0.5,), 0.5), ball_count=200,
                             samples=200_000, seed=2)
    fed2 = federer_empirical(LebesgueBox((0.0, 0.0), (1.0, 1.0)),
                             Ball((0.5, 0.5), 0.5), ball_count=200,
                             samples=200_000, seed=2)
    cantor = federer_empirical(SelfSimilarIFS.cantor_middle_thirds(),
                               Ball((0.5,), 0.5), ball_count=300,
                               samples=200_000, seed=3,
                               center_fraction=0.95, radius_range=(0.05, 1.0))
    np2 = nonplanar_test(MapSpec.veronese(2), LEB01, UNIT,
                         samples=20_000, seed=4)
    np3 = nonplanar_test(MapSpec.veronese(3), LEB01, UNIT,
                         samples=20_000, seed=4)
    planar = nonplanar_test(PLANAR, LEB01, UNIT, samples=20_000, seed=4)
    elapsed = time.monotonic() - start
    ok = (0.9 <= cg.C <= 1.1
          and abs(fed1.ratio - 3.0) <= 0.15
          and abs(fed2.ratio - 9.0) <= 0.45
          and cantor.ratio <= 30.0
          and np2.nonplanar and np3.nonplanar and not planar.nonplanar
          and elapsed < 120.0)
    verdict(8, "empirical goodness constants", ok,
            "C=%.3f federer=%.2f/%.2f cantor=%.2f nonplanar=%s/%s/%s %.1fs"
            % (cg.C, fed1.ratio, fed2.ratio, cantor.ratio,
               np2.nonplanar, np3.nonplanar, planar.nonplanar, elapsed))


def test_criterion_9_workers_reproducibility(verdict, tmp_path, monkeypatch, capsys):
    # Compare runs that differ only through the output environment
    # variable: --output would embed the differing path in the config
    # line.  Line 2 of the payload is the timestamp, the single
    # permitted nondeterminism; everything else must match byte for
    # byte between --workers 1 and --workers 8.
    start = time.monotonic()
    commands = {
        "escape": [
            "escape", "--map", "veronese n=2",
            "--measure", "lebesgue d=1 box=0,1",
            "--ball-center", "0.5", "--ball-radius", "0.75",
            "--t", "6,3,3", "--eps", "0.4", "0.1",
            "--samples", "4000", "--seed", "1",
        ],
        "decay": [
            "decay", "--map", "veronese n=2",
            "--measure", "lebesgue d=1 box=0,1",
            "--ball-center", "0.5", "--ball-radius", "0.75",
            "--t", "6,3,3", "--t", "8,4,4",
            "--eps", "0.05", "0.1", "0.2", "0.4",
            "--samples", "4000", "--seed", "1",
        ],
        "equidist": [
            "equidist", "--interval", "0,1", "--y0", "0.3",
            "--flow-time", "6", "--eps", "0.5",
            "--samples", "20000", "--seed", "0",
        ],
        "good-test": [
            "good-test", "--map", "veronese n=2", "--coord", "1",
            "--measure", "lebesgue d=1 box=0,1",
            "--ball-center", "0.5", "--ball-radius", "0.5",
            "--alpha", "1", "--eps", "0.05", "0.1", "0.2",
            "--samples", "20000", "--seed", "1",
        ],
        "federer-test": [
            "federer-test", "--measure", "lebesgue d=1 box=0,1",
            "--ball-center", "0.5", "--ball-radius", "0.5",
            "--ball-count", "50", "--samples", "50000", "--seed", "2",
        ],
        "nonplanar-test": [
            "nonplanar-test", "--map", "veronese n=2",
            "--measure", "lebesgue d=1 box=0,1",
            "--ball-center", "0.5", "--ball-radius", "0.75",
            "--samples", "10000", "--seed", "4",
        ],
    }
    differing = []
    for name, argv in commands.items():
        monkeypatch.setenv("DIRICHLET_LAB_OUTDIR", str(tmp_path / "w1"))
        assert cli_main(argv + ["--workers", "1"]) == 0
        monkeypatch.setenv("DIRICHLET_LAB_OUTDIR", str(tmp_path / "w8"))
        assert cli_main(argv + ["--workers", "8"]) == 0
        a = (tmp_path / "w1" / name / "report.jsonl").read_text().splitlines()
        b = (tmp_path / "w8" / name / "report.jsonl").read_text().splitlines()
        if not (a[:1] == b[:1] and a[2:] == b[2:]):
            differing.append(name)
    capsys.readouterr()
    elapsed = time.monotonic() - start
    ok = not differing and elapsed < 180.0
    verdict(9, "workers 1 vs 8 byte-identical", ok,
            "subcommands=%d differing=%s %.1fs"
            % (len(commands), differing or "none", elapsed))
