"""Command-line front end.

Twelve subcommands cover single queries (check, ba, constants), profile
and classification runs (trajectory, di), the sampling experiments
(escape, decay, equidist, counterexample), and the measure testers
(good-test, federer-test, nonplanar-test).

Every subcommand accepts --config FILE (values there fill in whatever
flags omit), --dry-run (validate and show the plan, compute nothing),
and --output DIR.  Runs write report.jsonl / report.csv /
config.resolved into the run directory; the default parent directory is
$DIRICHLET_LAB_OUTDIR or ./runs.  Exit codes: 0 success, 2 bad
arguments, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    OPTION_KEYS,
    RunConfig,
    parse_config,
    parse_forms,
    parse_map,
    parse_measure,
    parse_trajectory,
    parse_weight_vector,
)
from .errors import CapacityError, ParameterError
from .experiments import (
    equidist_test_k2,
    escape_table,
    no_drift_counterexample,
    nondiv_decay_scan,
)
from .flows import ba_quality, di_classify, dirichlet_solvable_direct, trajectory_lambda1
from .lattice import DEFAULT_MARGIN
from .measures import (
    Ball,
    cgood_empirical,
    epsilon0_registry,
    federer_empirical,
    nonplanar_test,
)

_ENV_OUTDIR = "DIRICHLET_LAB_OUTDIR"

_CONSTANT_SOURCES = (
    ("davenport_schmidt_curve", "Davenport & Schmidt: planar-curve improvability"),
    ("bugeaud_veronese", "Bugeaud: Veronese-curve threshold"),
    ("khintchine_density", "Khintchine: density of improvable systems"),
    ("nondivergence_veronese", "quantitative nondivergence, Veronese curve"),
    ("drv_manifolds", "nondegenerate-manifold threshold"),
)


def _constant_source(name: str) -> str:
    for prefix, source in _CONSTANT_SOURCES:
        if name.startswith(prefix):
            return source
    return "unknown"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ParameterError("expected a number list, got %r" % text)


class _Run:
    """Resolved parameters: CLI flag beats config file beats default."""

    def __init__(self, args: argparse.Namespace, experiment: str):
        self.args = args
        self.experiment = experiment
        self.cfg = None
        if getattr(args, "config", None):
            self.cfg = parse_config(Path(args.config).read_text())
            if self.cfg.experiment != experiment:
                raise ParameterError(
                    "config is for experiment %r, not %r"
                    % (self.cfg.experiment, experiment))
        self.options: list = []

    def _cfg_field(self, key):
        if self.cfg is None:
            return None
        if key in OPTION_KEYS:
            return self.cfg.option(key)
        return getattr(self.cfg, key)

    def scalar(self, key, default=None, conv=None, required=False):
        """Resolve one value; experiment options are recorded for the config."""
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self._cfg_field(key)
        if value is None:
            value = default
        if value is None:
            if required:
                raise ParameterError("missing required parameter --%s" % key)
            return None
        if conv is not None and isinstance(value, str):
            try:
                value = conv(value)
            except ParameterError:
                raise
            except (TypeError, ValueError):
                raise ParameterError("bad value for --%s: %r" % (key, value))
        if key in OPTION_KEYS:
            self.options.append((key, _option_text(value)))
        return value

    def repeated(self, key, required=False):
        value = getattr(self.args, key.replace("-", "_"), None)
        if not value:
            value = (self.cfg.option_list(key) if self.cfg else ()) or None
        if not value:
            if required:
                raise ParameterError("missing required parameter --%s" % key)
            return ()
        for item in value:
            self.options.append((key, str(item)))
        return tuple(value)

    def eps_values(self, required=True):
        value = getattr(self.args, "eps", None)
        if value is None and self.cfg is not None and self.cfg.eps:
            value = self.cfg.eps
        if value is None:
            if required:
                raise ParameterError("missing required parameter --eps")
            return ()
        return tuple(float(v) for v in value)

    def resolved_config(self, eps=(), samples=None, margin=None,
                        measure=None, map_decl=None, trajectory=()):
        seed = self.scalar("seed", default=0, conv=int)
        output = self.scalar("output")
        return RunConfig(
            experiment=self.experiment,
            seed=int(seed),
            output=output,
            eps=eps,
            samples=samples,
            margin=margin,
            measure=measure,
            map=map_decl,
            trajectory=trajectory,
            options=tuple(self.options),
        )

    def finish(self, config: RunConfig, records, summary_lines) -> int:
        from .reports import write_report

        run_dir = Path(config.output) if config.output else (
            Path(os.environ.get(_ENV_OUTDIR, "runs")) / self.experiment)
        if self.args.dry_run:
            print("dry-run: plan resolved, nothing computed or written")
            print("would write: %s" % (run_dir / "report.jsonl"))
            sys.stdout.write(config.to_text())
            return 0
        for line in summary_lines:
            print(line)
        write_report(run_dir, config, records)
        print("wrote %s" % (run_dir / "report.jsonl"))
        return 0

    def dry(self) -> bool:
        return bool(self.args.dry_run)

    def family_records(self) -> tuple:
        value = getattr(self.args, "family", None)
        if not value:
            value = (self.cfg.trajectory if self.cfg else ()) or None
        if not value:
            raise ParameterError("missing required parameter --family")
        return tuple(value)


def _parse_bool(text: str) -> bool:
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ParameterError("expected true/false, got %r" % text)


def _option_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_option_text(v) for v in value)
    return str(value)


def _ball(run: _Run) -> Ball:
    center = run.scalar("ball_center", required=True, conv=_float_list)
    radius = run.scalar("ball_radius", required=True, conv=float)
    return Ball(center, radius)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    run = _Run(args, "check")
    m = run.scalar("m", default=1, conv=int)
    n = run.scalar("n", default=1, conv=int)
    Y_text = run.scalar("Y", required=True)
    t_text = run.scalar("t", required=True)
    weak_q = bool(run.scalar("weak_q", default=False, conv=_parse_bool))
    eps = run.eps_values()
    if len(eps) != 1:
        raise ParameterError("check takes exactly one eps value")
    Y = parse_forms(Y_text, m, n)
    t = parse_weight_vector(t_text, m, n)
    config = run.resolved_config(eps=eps)
    if run.dry():
        return run.finish(config, [], [])
    witness = dirichlet_solvable_direct(Y, t, eps[0], weak_q=weak_q)
    record = {
        "experiment": "check", "m": m, "n": n, "Y": Y_text,
        "t": list(t.t), "eps": eps[0], "weak_q": weak_q,
        "solvable": witness is not None,
        "witness_p": list(witness.p) if witness else None,
        "witness_q": list(witness.q) if witness else None,
    }
    if witness is None:
        line = "unsolvable"
    else:
        line = "solvable p=%s q=%s" % (list(witness.p), list(witness.q))
    return run.finish(config, [record], [line])


def _cmd_trajectory(args) -> int:
    run = _Run(args, "trajectory")
    m = run.scalar("m", default=1, conv=int)
    n = run.scalar("n", default=1, conv=int)
    Y_text = run.scalar("Y", required=True)
    family_records = run.family_records()
    Y = parse_forms(Y_text, m, n)
    family = parse_trajectory(family_records, m, n)
    config = run.resolved_config(trajectory=tuple(family_records))
    if run.dry():
        return run.finish(config, [], [])
    series = trajectory_lambda1(Y, family)
    records = [
        {"t": list(w.t), "norm": w.norm, "floor": w.floor, "lambda1": lam}
        for w, lam in series
    ]
    lines = ["t=%s lambda1=%.6g" % (list(w.t), lam) for w, lam in series[:10]]
    if len(series) > 10:
        lines.append("... (%d points total)" % len(series))
    return run.finish(config, records, lines)


def _cmd_di(args) -> int:
    run = _Run(args, "di")
    m = run.scalar("m", default=1, conv=int)
    n = run.scalar("n", default=1, conv=int)
    Y_text = run.scalar("Y", required=True)
    family_records = run.family_records()
    horizon = run.scalar("horizon", required=True, conv=float)
    margin = run.scalar("margin", default=DEFAULT_MARGIN, conv=float)
    eps = run.eps_values()
    if len(eps) != 1:
        raise ParameterError("di takes exactly one eps value")
    Y = parse_forms(Y_text, m, n)
    family = parse_trajectory(family_records, m, n)
    config = run.resolved_config(eps=eps, margin=margin,
                                 trajectory=tuple(family_records))
    if run.dry():
        return run.finish(config, [], [])
    report = di_classify(Y, family, eps[0], horizon, margin=margin)
    lines = [
        "verdict: %s" % report.verdict.value,
        "last not-solvable norm: %s" % (report.last_not_solvable_norm,),
    ]
    return run.finish(config, report.to_records(), lines)


def _scan_inputs(args, experiment: str):
    """(run, config, scan keyword arguments) shared by escape and decay."""
    run = _Run(args, experiment)
    map_decl = run.scalar("map", required=True)
    measure_decl = run.scalar("measure", required=True)
    mapping = parse_map(map_decl)
    measure = parse_measure(measure_decl)
    ball = _ball(run)
    t_texts = run.repeated("t", required=True)
    weights = [parse_weight_vector(txt, 1, mapping.n) for txt in t_texts]
    eps = run.eps_values()
    samples = run.scalar("samples", default=20_000, conv=int)
    margin = run.scalar("margin", default=DEFAULT_MARGIN, conv=float)
    depth = run.scalar("depth", default=20, conv=int)
    config = run.resolved_config(eps=eps, samples=samples, margin=margin,
                                 measure=measure_decl, map_decl=map_decl)
    scan_args = dict(mapping=mapping, measure=measure, ball=ball, t_list=weights,
                     eps_grid=eps, samples=samples, seed=config.seed, depth=depth,
                     margin=margin, workers=args.workers)
    return run, config, scan_args


def _cmd_escape(args) -> int:
    run, config, scan_args = _scan_inputs(args, "escape")
    if run.dry():
        return run.finish(config, [], [])
    cells = escape_table(**scan_args)
    records = [c.to_record() for c in cells]
    lines = ["t=%s eps=%g fraction=%.6g ci=%.2g" % (list(c.t), c.eps, c.fraction, c.ci)
             for c in cells]
    return run.finish(config, records, lines)


def _cmd_decay(args) -> int:
    run, config, scan_args = _scan_inputs(args, "decay")
    if run.dry():
        return run.finish(config, [], [])
    scan = nondiv_decay_scan(**scan_args)
    lines = [
        "pooled decay: alpha=%s c2=%s (zero cells excluded: %d)"
        % (scan.alpha, scan.c2, scan.excluded_zero_cells),
        "per-eps max fraction: %s" % (list(scan.column_max),),
        "per-eps span over t:  %s" % (list(scan.column_span),),
    ]
    return run.finish(config, scan.to_records(), lines)


def _cmd_equidist(args) -> int:
    run = _Run(args, "equidist")
    interval = run.scalar("interval", required=True, conv=_float_list)
    if len(interval) != 2:
        raise ParameterError("--interval takes two numbers lo,hi")
    y0 = run.scalar("y0", default=0.0, conv=float)
    flow_time = run.scalar("flow_time", required=True, conv=float)
    eps = run.eps_values()
    if len(eps) != 1:
        raise ParameterError("equidist takes exactly one eps value")
    samples = run.scalar("samples", default=100_000, conv=int)
    margin = run.scalar("margin", default=DEFAULT_MARGIN, conv=float)
    config = run.resolved_config(eps=eps, samples=samples, margin=margin)
    if run.dry():
        return run.finish(config, [], [])
    report = equidist_test_k2(interval, y0, flow_time, eps[0],
                              samples=samples, seed=config.seed,
                              margin=margin, workers=args.workers)
    lines = [
        "translate=%.6g haar=%.6g discrepancy=%+.6g"
        % (report.translate_estimate, report.haar_estimate, report.discrepancy),
    ]
    return run.finish(config, [report.to_record()], lines)


def _cmd_counterexample(args) -> int:
    run = _Run(args, "counterexample")
    eps = run.eps_values()
    if len(eps) != 1:
        raise ParameterError("counterexample takes exactly one eps value")
    u = run.scalar("u", required=True, conv=float)
    s_values = run.scalar("s", required=True, conv=_float_list)
    systems = run.scalar("systems", default=100, conv=int)
    config = run.resolved_config(eps=eps)
    # surface the window violation before any heavy work, dry-run included
    if not (1.0 / eps[0] ** 2 < math.exp(u) < 2.0 * eps[0]):
        raise ParameterError(
            "empty parameter window: need 1/eps^2 < e^u < 2*eps, got "
            "1/eps^2=%g, e^u=%g, 2*eps=%g"
            % (1.0 / eps[0] ** 2, math.exp(u), 2.0 * eps[0]))
    if run.dry():
        return run.finish(config, [], [])
    record = no_drift_counterexample(eps[0], u, s_values, systems=systems,
                                     seed=config.seed)
    lines = [
        "cases: %d  all_pass: %s  max lambda1: %.6g"
        % (len(record.cases), record.all_pass, record.max_lambda1),
    ]
    return run.finish(config, record.to_records(), lines)


def _cmd_good_test(args) -> int:
    run = _Run(args, "good-test")
    map_decl = run.scalar("map", required=True)
    measure_decl = run.scalar("measure", required=True)
    mapping = parse_map(map_decl)
    measure = parse_measure(measure_decl)
    ball = _ball(run)
    coord = run.scalar("coord", default=1, conv=int)
    if not 1 <= coord <= mapping.n:
        raise ParameterError("--coord must be in 1..%d" % mapping.n)
    alpha = run.scalar("alpha", required=True, conv=float)
    eps = run.eps_values()
    samples = run.scalar("samples", default=100_000, conv=int)
    depth = run.scalar("depth", default=20, conv=int)
    config = run.resolved_config(eps=eps, samples=samples,
                                 measure=measure_decl, map_decl=map_decl)
    if run.dry():
        return run.finish(config, [], [])

    def f(x):
        return mapping.evaluate(np.asarray(x, dtype=float))[:, coord - 1]

    est = cgood_empirical(f, measure, ball, alpha, eps, samples=samples,
                          seed=config.seed, depth=depth, workers=args.workers)
    records = [
        {"experiment": "good-test", "seed": config.seed, "coord": coord,
         "alpha": est.alpha, "eps": e, "fraction": fr, "half_width": hw,
         "sup_norm": est.sup_norm, "C": est.C, "degenerate": est.degenerate}
        for e, fr, hw in zip(est.eps_grid, est.fractions, est.half_widths)
    ]
    lines = ["C=%.6g alpha=%g sup=%.6g degenerate=%s"
             % (est.C, est.alpha, est.sup_norm, est.degenerate)]
    return run.finish(config, records, lines)


def _cmd_federer_test(args) -> int:
    run = _Run(args, "federer-test")
    measure_decl = run.scalar("measure", required=True)
    measure = parse_measure(measure_decl)
    region = _ball(run)
    ball_count = run.scalar("ball_count", default=200, conv=int)
    samples = run.scalar("samples", default=200_000, conv=int)
    depth = run.scalar("depth", default=20, conv=int)
    center_fraction = run.scalar("center_fraction", default=0.2, conv=float)
    radius_range = run.scalar("radius_range", default=(0.8, 1.0), conv=_float_list)
    config = run.resolved_config(samples=samples, measure=measure_decl)
    if run.dry():
        return run.finish(config, [], [])
    est = federer_empirical(measure, region, ball_count=ball_count,
                            samples=samples, seed=config.seed, depth=depth,
                            center_fraction=center_fraction,
                            radius_range=tuple(radius_range),
                            workers=args.workers)
    record = {"experiment": "federer-test", "seed": config.seed,
              "ratio": est.ratio, "half_width": est.half_width,
              "balls_used": est.balls_used,
              "worst_center": list(est.worst_center),
              "worst_radius": est.worst_radius}
    lines = ["max nu(3B)/nu(B) = %.6g (half-width %.2g, %d balls)"
             % (est.ratio, est.half_width, est.balls_used)]
    return run.finish(config, [record], lines)


def _cmd_nonplanar_test(args) -> int:
    run = _Run(args, "nonplanar-test")
    map_decl = run.scalar("map", required=True)
    measure_decl = run.scalar("measure", required=True)
    mapping = parse_map(map_decl)
    measure = parse_measure(measure_decl)
    ball = _ball(run)
    samples = run.scalar("samples", default=20_000, conv=int)
    depth = run.scalar("depth", default=20, conv=int)
    config = run.resolved_config(samples=samples, measure=measure_decl,
                                 map_decl=map_decl)
    if run.dry():
        return run.finish(config, [], [])
    result = nonplanar_test(mapping, measure, ball, samples=samples,
                            seed=config.seed, depth=depth,
                            workers=args.workers)
    record = {"experiment": "nonplanar-test", "seed": config.seed,
              "nonplanar": result.nonplanar, "sigma_min": result.sigma_min,
              "points_used": result.points_used}
    lines = ["nonplanar=%s sigma_min=%.3g (%d points)"
             % (result.nonplanar, result.sigma_min, result.points_used)]
    return run.finish(config, [record], lines)


def _cmd_ba(args) -> int:
    run = _Run(args, "ba")
    m = run.scalar("m", default=1, conv=int)
    n = run.scalar("n", default=1, conv=int)
    Y_text = run.scalar("Y", required=True)
    r = run.scalar("r", required=True, conv=_float_list)
    s = run.scalar("s", required=True, conv=_float_list)
    q_max = run.scalar("q_max", required=True, conv=int)
    Y = parse_forms(Y_text, m, n)
    config = run.resolved_config()
    if run.dry():
        return run.finish(config, [], [])
    value = ba_quality(Y, r, s, q_max)
    record = {"experiment": "ba", "m": m, "n": n, "Y": Y_text,
              "r": list(r), "s": list(s), "q_max": q_max, "quality": value}
    return run.finish(config, [record], ["ba quality = %.6g" % value])


def _cmd_constants(args) -> int:
    run = _Run(args, "constants")
    max_n = run.scalar("max_n", default=4, conv=int)
    config = run.resolved_config()
    if run.dry():
        return run.finish(config, [], [])
    registry = epsilon0_registry(max_n)
    records = [
        {"name": name, "value": value, "source": _constant_source(name)}
        for name, value in registry.items()
    ]
    width = max(len(r["name"]) for r in records)
    lines = ["%-*s  %-12.6g  %s" % (width, r["name"], r["value"], r["source"])
             for r in records]
    return run.finish(config, records, lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, sampling=False):
    sub.add_argument("--config", help="config file supplying defaults")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sub.add_argument("--output", help="run directory (default $%s/<experiment>)" % _ENV_OUTDIR)
    sub.add_argument("--dry-run", action="store_true",
                     help="validate and print the resolved plan; compute nothing")
    if sampling:
        sub.add_argument("--workers", type=int, default=1,
                         help="sampling threads; any N gives identical output")


def _add_ball(sub, noun="ball"):
    sub.add_argument("--ball-center", help="%s center, comma-separated" % noun)
    sub.add_argument("--ball-radius", help="%s radius" % noun)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-lab",
        description="Improvable Dirichlet systems: solvers, flows, and experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="single system query: is (eps, t) solvable?")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--Y", help="form rows: entries ','-separated, rows ';'-separated")
    p.add_argument("--t", help="weight vector, m+n comma-separated entries")
    p.add_argument("--eps", nargs="+", type=float)
    p.add_argument("--weak-q", action="store_true", default=None,
                   help="allow |q|^{s_j} <= eps e^{t_j} with equality")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser(
        "trajectory", help="shortest-vector profile along a weight family",
        description="CSV columns: t;norm;floor;lambda1")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--Y")
    p.add_argument("--family", action="append",
                   help="'ray central t=..', 'ray r=.. s=.. t=..', or repeated 'explicit ..'")
    _add_common(p)
    p.set_defaults(handler=_cmd_trajectory)

    p = subs.add_parser(
        "di", help="eps-improvability classification up to a horizon",
        description="CSV columns: t;norm;floor;solvable;witness_p;witness_q")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--Y")
    p.add_argument("--family", action="append")
    p.add_argument("--eps", nargs="+", type=float)
    p.add_argument("--horizon", type=float, help="largest weight norm examined")
    p.add_argument("--margin", type=float)
    _add_common(p)
    p.set_defaults(handler=_cmd_di)

    for name, help_text, handler in (
        ("escape", "escape-measure table over (t, eps)", _cmd_escape),
        ("decay", "escape decay law: fractions, per-t slopes, pooled fit", _cmd_decay),
    ):
        p = subs.add_parser(
            name, help=help_text,
            description="CSV columns: experiment;seed;t;floor_t;norm_t;eps;fraction;ci;n;"
                        "boundary_n")
        p.add_argument("--map")
        p.add_argument("--measure")
        _add_ball(p)
        p.add_argument("--t", action="append", help="weight vector; repeatable")
        p.add_argument("--eps", nargs="+", type=float)
        p.add_argument("--samples", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--margin", type=float)
        _add_common(p, sampling=True)
        p.set_defaults(handler=handler)

    p = subs.add_parser(
        "equidist", help="flowed-translate vs invariant measure at k=2",
        description="CSV columns: experiment;y0;interval;t;eps;translate_estimate;"
                    "haar_estimate;discrepancy;translate_n;translate_boundary_n;"
                    "haar_n;haar_boundary_n")
    p.add_argument("--interval", help="lo,hi")
    p.add_argument("--y0", type=float)
    p.add_argument("--flow-time", type=float)
    p.add_argument("--eps", nargs="+", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--margin", type=float)
    _add_common(p, sampling=True)
    p.set_defaults(handler=_cmd_equidist)

    p = subs.add_parser(
        "counterexample", help="frozen-coordinate construction, m=2 n=1",
        description="CSV columns: experiment;eps;u;system_index;s;primitive_ok;"
                    "lambda1;lambda1_below_eps;near_vector_distance;near_vector_q")
    p.add_argument("--eps", nargs="+", type=float)
    p.add_argument("--u", type=float, help="frozen first weight; needs 1/eps^2 < e^u < 2*eps")
    p.add_argument("--s", help="comma-separated list of drifting parameters")
    p.add_argument("--systems", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_counterexample)

    p = subs.add_parser(
        "good-test", help="(C, alpha)-good estimate for one map coordinate",
        description="CSV columns: experiment;seed;coord;alpha;eps;fraction;"
                    "half_width;sup_norm;C;degenerate")
    p.add_argument("--map")
    p.add_argument("--coord", type=int, help="1-based map coordinate (default 1)")
    p.add_argument("--measure")
    _add_ball(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", nargs="+", type=float, help="sublevel grid")
    p.add_argument("--samples", type=int)
    p.add_argument("--depth", type=int)
    _add_common(p, sampling=True)
    p.set_defaults(handler=_cmd_good_test)

    p = subs.add_parser(
        "federer-test", help="empirical doubling ratio nu(3B)/nu(B)",
        description="CSV columns: experiment;seed;ratio;half_width;balls_used;"
                    "worst_center;worst_radius")
    p.add_argument("--measure")
    _add_ball(p, noun="region")
    p.add_argument("--ball-count", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--center-fraction", type=float)
    p.add_argument("--radius-range", help="lo,hi inside (0, 1]")
    _add_common(p, sampling=True)
    p.set_defaults(handler=_cmd_federer_test)

    p = subs.add_parser(
        "nonplanar-test", help="affine-independence rank test for (1, f)",
        description="CSV columns: experiment;seed;nonplanar;sigma_min;points_used")
    p.add_argument("--map")
    p.add_argument("--measure")
    _add_ball(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--depth", type=int)
    _add_common(p, sampling=True)
    p.set_defaults(handler=_cmd_nonplanar_test)

    p = subs.add_parser(
        "ba", help="badly-approximable quality inf over a q box",
        description="CSV columns: experiment;m;n;Y;r;s;q_max;quality")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--Y")
    p.add_argument("--r", help="comma-separated form weights")
    p.add_argument("--s", help="comma-separated variable weights")
    p.add_argument("--q-max", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_ba)

    p = subs.add_parser(
        "constants", help="named small-eps thresholds with sources",
        description="CSV columns: name;value;source")
    p.add_argument("--max-n", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except CapacityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ParameterError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
