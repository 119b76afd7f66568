"""Tests for config parsing, report writing, and the CLI."""

import argparse
import hashlib
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirichlet_lab import cli, lattice, rng
from dirichlet_lab.cli import main
from dirichlet_lab.config import (
    RunConfig,
    _num,
    _num_list,
    parse_config,
    parse_forms,
    parse_map,
    parse_measure,
    parse_trajectory,
    parse_weight_vector,
)
from dirichlet_lab.errors import EmptySupportError, ParameterError
from dirichlet_lab.experiments import _invariant_thick_k2
from dirichlet_lab.lattice import DEFAULT_MARGIN
from dirichlet_lab.measures import LebesgueBox, MapSpec, SelfSimilarIFS
from dirichlet_lab.reports import FORMAT_VERSION, render_csv, render_jsonl, write_report


# ---------------------------------------------------------------------------
# RunConfig text format
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig("escape", (
        ("seed", "5"), ("output", "runs/x"), ("eps", "0.4 0.1"),
        ("samples", "2000"), ("margin", "1e-09"),
        ("measure", "lebesgue d=1 box=0,1"), ("map", "veronese n=2"),
        ("trajectory", "ray central t=1:1:5"),
        ("ball_center", "0.5 0.375"), ("ball_radius", "2.0"),
        ("t", "6,3,3"), ("t", "8,4,4"),
    ))
    text = cfg.to_text()
    assert parse_config(text) == cfg
    # serialization is canonical: parsing and re-serializing is stable
    assert parse_config(text).to_text() == text
    # head keys come first in their fixed order, the rest in given order
    shuffled = RunConfig("escape", cfg.entries[8:] + cfg.entries[7::-1])
    assert shuffled.to_text() == text
    assert cfg.values("t") == ("6,3,3", "8,4,4")
    assert cfg.values("depth") == ()


def test_config_comments_and_blank_lines():
    cfg = parse_config("""
# a comment
[run]
experiment = check   # trailing comment
seed = 3

Y = 0.5
""")
    assert cfg.experiment == "check"
    assert cfg.entries == (("seed", "3"), ("Y", "0.5"))


@pytest.mark.parametrize("text,fragment", [
    ("[other]\nexperiment = check\n", "unknown section"),
    ("experiment = check\n", "before [run]"),
    ("[run]\nseed = 1\n", "missing the experiment"),
    ("[run]\nexperiment = a\nexperiment = b\n", "duplicate key"),
    ("[run]\nexperiment = check\njust-a-token\n", "expected key = value"),
])
def test_config_parse_errors(text, fragment):
    with pytest.raises(ParameterError, match=None) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_config_duplicate_scalar_option_rejected(rundir, capsys):
    # the format keeps every line; the subcommand decides what may repeat
    cfg = parse_config("[run]\nexperiment = counterexample\nu = 1\nu = 2\n")
    assert cfg.values("u") == ("1", "2")
    (rundir / "cx.cfg").write_text(
        "[run]\nexperiment = counterexample\neps = 0.9\nu = 0.4\nu = 0.5\ns = 3\n")
    assert main(["counterexample", "--config", "cx.cfg", "--dry-run"]) == 2
    assert "config key 'u' given more than once" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# declaration parsers
# ---------------------------------------------------------------------------


def test_parse_measure_lebesgue():
    m = parse_measure("lebesgue d=2 box=0,1,-1,1")
    assert isinstance(m, LebesgueBox)
    assert tuple(m.lower) == (0.0, -1.0)
    assert tuple(m.upper) == (1.0, 1.0)
    with pytest.raises(ParameterError):
        parse_measure("lebesgue d=2 box=0,1")
    with pytest.raises(ParameterError):
        parse_measure("lebesgue d=1 box=0,1 extra=2")
    # a number too large for a float once escaped as OverflowError
    with pytest.raises(ParameterError, match="bad number '1e400'"):
        parse_measure("lebesgue d=1 box=0,1e400")
    with pytest.raises(ParameterError, match="finite"):
        parse_measure("lebesgue d=1 box=-1e308,1e308")


def test_parse_measure_ifs_matches_cantor():
    m = parse_measure("ifs ratios=1/3,1/3 trans=0,2/3 probs=1/2,1/2")
    c = SelfSimilarIFS.cantor_middle_thirds()
    assert isinstance(m, SelfSimilarIFS)
    assert tuple(m.ratios) == tuple(c.ratios)
    assert tuple(m.translations) == tuple(c.translations)
    # probs default to uniform
    m2 = parse_measure("ifs ratios=1/3,1/3 trans=0,2/3")
    assert tuple(m2.probs) == (0.5, 0.5)
    with pytest.raises(ParameterError):
        parse_measure("gaussian sigma=1")


def test_parse_measure_ifs_in_the_plane():
    # trans= lists d numbers per map, map by map
    m = parse_measure("ifs ratios=1/2,2/5,3/10 trans=0,0,1/2,1/10,1/5,3/5")
    assert m.d == 2
    assert m.translations == ((0.0, 0.0), (0.5, 0.1), (0.2, 0.6))
    with pytest.raises(ParameterError, match="multiple of the 3 ratios, got 5"):
        parse_measure("ifs ratios=1/2,2/5,3/10 trans=0,0,1/2,1/10,1/5")


def test_parse_map_veronese_and_poly():
    assert parse_map("veronese n=3") == MapSpec.veronese(3)
    p = parse_map("map_is_not_a_token")if False else parse_map(
        "poly d=1 n=2 f1=x1 f2=x1^2")
    assert p == MapSpec.veronese(2)
    q = parse_map("poly d=2 n=1 f1=x1^2-2*x1*x2+x2^2")
    assert q.coords[0] == (
        (Fraction(1), (2, 0)), (Fraction(-2), (1, 1)), (Fraction(1), (0, 2)))
    r = parse_map("poly d=1 n=1 f1=1/3*x1+-1/2")
    assert r.coords[0] == ((Fraction(1, 3), (1,)), (Fraction(-1, 2), (0,)))


@pytest.mark.parametrize("decl", [
    "poly d=1 n=1 f1=x2",            # variable out of range
    "poly d=1 n=2 f1=x1",            # missing f2
    "poly d=1 n=1 f1=x1 f2=x1",      # extra key
    "poly d=1 n=1 f1=x1+",           # dangling term
    "poly d=1 n=1 f1=spam",          # junk factor
    "veronese n=two",
    "frobnicate n=1",
])
def test_parse_map_errors(decl):
    with pytest.raises(ParameterError):
        parse_map(decl)


def test_parse_trajectory_forms():
    fam = parse_trajectory(["ray central t=1:0.5:4"], 1, 2)
    assert [w.t for w in fam] == [(1.0, 0.5, 0.5), (1.5, 0.75, 0.75),
                                  (2.0, 1.0, 1.0), (2.5, 1.25, 1.25)]
    fam = parse_trajectory(["ray r=1 s=0.5,0.5 t=2:1:3"], 1, 2)
    assert [w.t for w in fam] == [(2.0, 1.0, 1.0), (3.0, 1.5, 1.5), (4.0, 2.0, 2.0)]
    fam = parse_trajectory(["explicit 4 2 2", "explicit 6 3 3"], 1, 2)
    assert [w.t for w in fam] == [(4.0, 2.0, 2.0), (6.0, 3.0, 3.0)]


@pytest.mark.parametrize("records", [
    [],
    ["ray central t=1:1:3", "explicit 1 1"],
    ["ray central t=1:1:3", "ray central t=2:1:3"],
    ["explicit 1 1 1"],               # wrong arity for m=1, n=1
    ["ray central t=1:1"],            # malformed schedule
    ["walk 1 2 3"],
])
def test_parse_trajectory_errors(records):
    with pytest.raises(ParameterError):
        parse_trajectory(records, 1, 1)


def test_parse_forms_and_weights():
    Y = parse_forms("1/3", 1, 1)
    assert Y.entry(0, 0) == Fraction(1, 3)
    Y2 = parse_forms("0.3;-1.2", 2, 1)
    assert (Y2.m, Y2.n) == (2, 1)
    with pytest.raises(ParameterError):
        parse_forms("0.3,0.4", 1, 1)
    for m, n in ((0, 1), (1, 0), (5, 1)):
        with pytest.raises(ParameterError, match=re.escape("m, n must be in [1, 4]")):
            parse_forms("", m, n)
    w = parse_weight_vector("6,3,3", 1, 2)
    assert w.t == (6.0, 3.0, 3.0)
    assert parse_weight_vector("6 3 3", 1, 2) == w
    with pytest.raises(ParameterError):
        parse_weight_vector("6,3", 1, 2)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _config():
    return RunConfig("escape", (("seed", "1"), ("eps", "0.5"), ("samples", "10")))


def test_jsonl_layout_and_determinism():
    records = [{"experiment": "escape", "fraction": 0.25, "t": [2.0, 1.0, 1.0]}]
    text = render_jsonl(_config(), records, "2026-01-01T00:00:00+0000")
    again = render_jsonl(_config(), records, "2026-01-01T00:00:00+0000")
    assert text == again
    lines = text.splitlines()
    assert json.loads(lines[0]) == {"format": FORMAT_VERSION}
    assert "timestamp" in json.loads(lines[1])
    embedded = json.loads(lines[2])["config"]
    assert parse_config(embedded) == _config()
    assert json.loads(lines[3])["fraction"] == 0.25


def test_csv_rendering():
    records = [
        {"a": 1, "b": [1.0, 2.5], "c": None, "d": True},
        {"a": 2, "b": [3.0], "c": "x", "d": False},
    ]
    text = render_csv(_config(), records, "now")
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "a,b,c,d"
    assert body[1] == "1,1.0;2.5,,true"
    assert body[2] == "2,3.0,x,false"
    assert "# format: %s" % FORMAT_VERSION in text
    assert "# config: experiment = escape" in text
    with pytest.raises(ParameterError):
        render_csv(_config(), [{"a": 1}, {"b": 2}], "now")


def test_write_report_files(tmp_path):
    run = write_report(tmp_path / "r1", _config(), [{"x": 1}])
    assert (run / "report.jsonl").exists()
    assert (run / "report.csv").exists()
    resolved = (run / "config.resolved").read_text()
    assert parse_config(resolved) == _config()
    jsonl = (run / "report.jsonl").read_text().splitlines()
    assert len(jsonl) == 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def rundir(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRICHLET_LAB_OUTDIR", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cli_check_unsolvable(rundir, capsys):
    code = main(["check", "--m", "1", "--n", "1", "--Y", "0.5",
                 "--t", "1,1", "--eps", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "unsolvable"
    rows = _jsonl_records(rundir / "runs" / "check" / "report.jsonl")
    assert rows[0]["solvable"] is False


def test_cli_check_solvable_witness(rundir, capsys):
    code = main(["check", "--m", "1", "--n", "1", "--Y", "0.001",
                 "--t", "1,1", "--eps", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("solvable p=[0] q=[1]")


def _jsonl_records(path):
    lines = path.read_text().splitlines()
    return [json.loads(l) for l in lines[3:]]


def test_cli_trajectory_and_di_row_shapes(rundir):
    assert main(["trajectory", "--m", "1", "--n", "1", "--Y", "1/3",
                 "--family", "ray central t=1:1:4"]) == 0
    rows = _jsonl_records(rundir / "runs" / "trajectory" / "report.jsonl")
    assert len(rows) == 4
    assert list(rows[0]) == ["t", "norm", "floor", "lambda1"]

    assert main(["di", "--m", "1", "--n", "1", "--Y", "1/3",
                 "--family", "ray central t=1:1:5", "--eps", "0.5",
                 "--horizon", "5"]) == 0
    rows = _jsonl_records(rundir / "runs" / "di" / "report.jsonl")
    assert list(rows[0]) == ["t", "norm", "floor", "solvable",
                             "witness_p", "witness_q"]


def test_cli_counterexample_window_message(rundir, capsys):
    argv = ["counterexample", "--eps", "0.6", "--u", "0.405", "--s", "3,4"]
    for extra in ([], ["--dry-run"]):
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert "empty parameter window: need 1/eps^2 < e^u < 2*eps" in err
    assert not (rundir / "runs").exists()


def test_cli_counterexample_runs(rundir, capsys):
    code = main(["counterexample", "--eps", "0.9", "--u",
                 repr(math.log(1.5)), "--s", "3,4", "--systems", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all_pass: True" in out


def test_cli_capacity_exit_code(rundir, capsys):
    code = main(["check", "--m", "1", "--n", "4", "--Y", "0.1,0.2,0.3,0.4",
                 "--t", "24,6,6,6,6", "--eps", "1.0"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_argument_error_is_2(rundir, capsys):
    assert main(["check", "--m", "1", "--n", "1", "--Y", "0.5",
                 "--t", "1,1"]) == 2          # missing --eps
    assert main(["no-such-command"]) == 2
    assert main(["equidist", "--interval", "1,0", "--flow-time", "2",
                 "--eps", "0.5", "--samples", "100"]) == 2


def test_cli_equidist_refuses_translates_the_flow_resolves(rundir, capsys):
    argv = ["equidist", "--interval", "0,1", "--flow-time", "12", "--eps", "0.5"]
    for extra in ([], ["--dry-run"]):
        assert main(argv + ["--y0", "1e12", "--samples", "100000"] + extra) == 3
        assert "float spacing" in capsys.readouterr().err
    assert not (rundir / "runs").exists()
    assert main(argv + ["--y0", "1e6", "--samples", "2000"]) == 0


def test_cli_equidist_reference_is_exact_above_one_over_root_two(rundir, capsys):
    assert main(["equidist", "--interval", "0,1", "--y0", "0.3", "--flow-time", "9",
                 "--eps", "0.8", "--samples", "20000"]) == 0
    (row,) = _jsonl_records(rundir / "runs" / "equidist" / "report.jsonl")
    assert {"haar_n", "haar_boundary_n"}.isdisjoint(row)
    assert row["haar_estimate"] == _invariant_thick_k2(0.8, DEFAULT_MARGIN)
    assert abs(row["haar_estimate"] - 0.2288126) < 1e-7


def test_cli_equidist_band_holding_the_whole_law(rundir, capsys):
    assert main(["equidist", "--interval", "0,1", "--flow-time", "4", "--eps", "0.5",
                 "--margin", "0.6", "--samples", "1000"]) == 0
    (row,) = _jsonl_records(rundir / "runs" / "equidist" / "report.jsonl")
    assert (row["translate_estimate"], row["haar_estimate"], row["translate_n"]) == (0.0, 0.0, 0)


def test_cli_dry_run_writes_nothing(rundir, capsys):
    code = main(["escape", "--map", "veronese n=2", "--measure",
                 "lebesgue d=1 box=0,1", "--ball-center", "0.5",
                 "--ball-radius", "2", "--t", "6,3,3", "--eps", "0.4",
                 "--samples", "50", "--dry-run"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dry-run" in out and "[run]" in out
    assert not (rundir / "runs").exists()


def test_cli_planar_ifs_dry_run_and_run(rundir, capsys):
    argv = ["federer-test", "--measure", "ifs ratios=1/2,2/5,3/10 trans=0,0,1/2,1/10,1/5,3/5",
            "--ball-center", "0.3,0.3", "--ball-radius", "0.5", "--samples", "2000",
            "--ball-count", "20"]
    assert main(argv + ["--dry-run"]) == 0
    assert "trans=0,0,1/2,1/10,1/5,3/5" in capsys.readouterr().out
    assert not (rundir / "runs").exists()
    assert main(argv) == 0
    assert (rundir / "runs" / "federer-test" / "report.jsonl").exists()


def test_cli_constants_table(rundir, capsys):
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "nondivergence_veronese(n=2)" in out
    assert "Davenport" in out
    rows = _jsonl_records(rundir / "runs" / "constants" / "report.jsonl")
    byname = {r["name"]: r["value"] for r in rows}
    assert byname["nondivergence_veronese(n=2)"] == pytest.approx(1 / 2304)
    assert byname["khintchine_density"] == 0.5


def test_cli_config_file_resolves_and_overrides(rundir, capsys):
    cfg_path = rundir / "esc.cfg"
    cfg_path.write_text("""[run]
experiment = escape
seed = 5
eps = 0.4
samples = 200
measure = lebesgue d=1 box=0,1
map = veronese n=2
ball_center = 0.5
ball_radius = 2.0
t = 6,3,3
""")
    code = main(["escape", "--config", str(cfg_path)])
    assert code == 0
    resolved = (rundir / "runs" / "escape" / "config.resolved").read_text()
    cfg = parse_config(resolved)
    assert cfg.values("seed") == ("5",) and cfg.values("samples") == ("200",)
    # flag overrides the file
    code = main(["escape", "--config", str(cfg_path), "--samples", "100",
                 "--output", str(rundir / "runs" / "esc2")])
    assert code == 0
    cfg2 = parse_config((rundir / "runs" / "esc2" / "config.resolved").read_text())
    assert cfg2.values("samples") == ("100",)
    # wrong experiment in the file
    assert main(["decay", "--config", str(cfg_path)]) == 2
    capsys.readouterr()


def test_cli_workers_identical_output(rundir, monkeypatch, capsys):
    base = ["escape", "--map", "veronese n=2", "--measure",
            "lebesgue d=1 box=0,1", "--ball-center", "0.5",
            "--ball-radius", "2", "--t", "6,3,3", "--eps", "0.4", "0.1",
            "--samples", "2000"]
    monkeypatch.setenv("DIRICHLET_LAB_OUTDIR", str(rundir / "outA"))
    assert main(base + ["--workers", "1"]) == 0
    monkeypatch.setenv("DIRICHLET_LAB_OUTDIR", str(rundir / "outB"))
    assert main(base + ["--workers", "8"]) == 0
    capsys.readouterr()
    a = (rundir / "outA" / "escape" / "report.jsonl").read_text().splitlines()
    b = (rundir / "outB" / "escape" / "report.jsonl").read_text().splitlines()
    assert a[:1] == b[:1]
    assert a[2:] == b[2:]          # everything but the timestamp line


def test_cli_cantor_escape_is_identical_across_workers(rundir, monkeypatch, capsys):
    # about one draw in 22 lands in the ball, so the second pass spans
    # 15 blocks and the thread pool splits them
    base = ["escape", "--map", "veronese n=2", "--measure", _CANTOR,
            "--ball-center", "0.7407407", "--ball-radius", "0.01", "--t", "6,3,3",
            "--eps", "0.4", "0.1", "--samples", "3000"]
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DIRICHLET_LAB_OUTDIR", str(rundir / ("out" + workers)))
        assert main(base + ["--workers", workers]) == 0
        lines = (rundir / ("out" + workers) / "escape" / "report.jsonl").read_text()
        reports.append([line for line in lines.splitlines()
                        if not line.startswith('{"timestamp": ')])
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_cli_cantor_escape_records_are_pinned(rundir, capsys):
    # perfbench's escape-cantor command at 2000 samples: the records, not
    # the timestamp or config lines, are the bits the sampling layer fixes
    argv = ["escape", "--map", "veronese n=2", "--measure", _CANTOR,
            "--ball-center", "0.7407407", "--ball-radius", "0.01", "--t", "6,3,3",
            "--eps", "0.4", "0.2", "0.1", "0.05", "--samples", "2000", "--workers", "1",
            "--seed", "0"]
    assert main(argv) == 0
    capsys.readouterr()
    lines = (rundir / "runs" / "escape" / "report.jsonl").read_text().splitlines()
    assert (hashlib.sha256("\n".join(lines[3:]).encode()).hexdigest()
            == "f36d26e3e2f031a42c54b80b3aab2cdd3a41d2f93c4a5200e5d0d699dd64f725")


def test_cli_a_ball_off_the_support_exits_before_drawing(rundir, capsys, monkeypatch):
    # the ball lies in the removed middle third: refused by the dry run and
    # by the run, without one block of the stream
    argv = ["escape", "--map", "veronese n=2", "--measure", _CANTOR, "--ball-center", "0.5",
            "--ball-radius", "0.1", "--t", "6,3,3", "--eps", "0.4", "--samples", "2000"]
    monkeypatch.setattr("dirichlet_lab.rng.stream", None)
    assert main(argv + ["--dry-run"]) == 2
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the ball (center (0.5,), radius 0.1) misses the support of the "
                   "measure"] * 2


def test_cli_equidist_and_ba(rundir, capsys):
    assert main(["equidist", "--interval", "0,1", "--flow-time", "3",
                 "--eps", "0.5", "--samples", "5000"]) == 0
    rows = _jsonl_records(rundir / "runs" / "equidist" / "report.jsonl")
    assert 0.0 <= rows[0]["translate_estimate"] <= 1.0
    assert 0.0 <= rows[0]["haar_estimate"] <= 1.0

    assert main(["ba", "--m", "1", "--n", "1", "--Y", "0.6180339887498949",
                 "--r", "1", "--s", "1", "--q-max", "200"]) == 0
    out = capsys.readouterr().out
    assert "ba quality = " in out
    rows = _jsonl_records(rundir / "runs" / "ba" / "report.jsonl")
    assert 0.44 <= rows[0]["quality"] <= 0.45


_ESCAPE_FLAGS = ["--map", "veronese n=2", "--measure", "lebesgue d=1 box=0,1",
                 "--ball-center", "0.5", "--ball-radius", "0.75", "--t", "6,3,3",
                 "--eps", "0.4"]
_GOOD_FLAGS = ["--map", "veronese n=2", "--measure", "lebesgue d=1 box=0,1",
               "--ball-center", "0.5", "--ball-radius", "0.5", "--samples", "100"]
_CANTOR = "ifs ratios=1/3,1/3 trans=0,2/3"
_COUNTEREXAMPLE = ["counterexample", "--eps", "0.9", "--u", "0.4054651"]
# m + n = 7 forms: inside flows.MAX_FORMS, beyond lattice.MAX_DIM
_SEVEN_FORMS = ["--m", "3", "--n", "4",
                "--Y", "0.1,0.2,0.3,0.4;0.5,0.6,0.7,0.8;0.9,0.11,0.12,0.13",
                "--family", "ray r=0.3333333333333333,0.3333333333333333,0.3333333333333334 "
                "s=0.25,0.25,0.25,0.25 t=1:2:1"]


# two balls that provably miss the support: the Cantor set's middle gap,
# and an interval beside the box
_OFF_SUPPORT = {
    "cantor-gap": ["--measure", _CANTOR, "--ball-center", "0.5", "--ball-radius", "0.1"],
    "beside-the-box": ["--measure", "lebesgue d=1 box=0,1", "--ball-center", "1.5",
                       "--ball-radius", "0.25"],
}
_BALL_RUNS = {
    "escape": ["--map", "veronese n=2", "--t", "6,3,3", "--eps", "0.4", "--samples", "2000"],
    "decay": ["--map", "veronese n=2", "--t", "6,3,3", "--eps", "0.4", "0.2",
              "--samples", "2000"],
    "good-test": ["--map", "veronese n=2", "--alpha", "1", "--eps", "0.1",
                  "--samples", "2000"],
    "nonplanar-test": ["--map", "veronese n=2", "--samples", "2000"],
    "federer-test": ["--samples", "2000", "--ball-count", "20"],
}


@pytest.mark.parametrize("ball", sorted(_OFF_SUPPORT))
@pytest.mark.parametrize("name", sorted(_BALL_RUNS))
def test_cli_every_ball_subcommand_refuses_a_ball_off_the_support(rundir, capsys,
                                                                  monkeypatch, name, ball):
    # one check (measures._check_ball) plans every ball run: the dry run and
    # the run exit 2 with the same line, and neither draws
    monkeypatch.setattr("dirichlet_lab.rng.stream", None)
    argv = [name] + _OFF_SUPPORT[ball] + _BALL_RUNS[name]
    errors = []
    for extra in (["--dry-run"], []):
        assert main(argv + extra) == 2
        errors.append(capsys.readouterr().err.splitlines()[0])
    center, radius = _OFF_SUPPORT[ball][3], _OFF_SUPPORT[ball][5]
    assert errors == ["error: the ball (center (%s,), radius %s) misses the support of the "
                      "measure" % (center, radius)] * 2
    assert not (rundir / "runs").exists()


_EQUIDIST_SMALL = ["equidist", "--interval", "0,1", "--flow-time", "3", "--eps", "0.5",
                   "--samples", "100"]
_ESCAPE_SMALL = ["escape"] + _ESCAPE_FLAGS + ["--samples", "100"]
_WEIGHTS_NOT_POSITIVE = "all weight entries must be positive and finite, got %s"


@pytest.mark.parametrize("argv,error", [
    (_EQUIDIST_SMALL + ["--flow-time", "-1"], _WEIGHTS_NOT_POSITIVE % "(-1.0, -1.0)"),
    (_EQUIDIST_SMALL + ["--eps", "1.5"], "lattice route requires 0 < eps < 1, got 1.5"),
    (_EQUIDIST_SMALL + ["--samples", "0"], "samples must be >= 1, got 0"),
    (_COUNTEREXAMPLE + ["--s", "-3", "--systems", "2"],
     _WEIGHTS_NOT_POSITIVE % "(0.4054651, -3.0, -2.5945349)"),
    (["counterexample", "--eps", "1.2", "--u", "0.4054651", "--s", "3", "--systems", "2"],
     "lattice route requires 0 < eps < 1, got 1.2"),
    (_ESCAPE_SMALL + ["--samples", "0"], "samples must be >= 1, got 0"),
    (_ESCAPE_SMALL + ["--eps", "1.4"], "lattice route requires 0 < eps < 1, got 1.4"),
    (["good-test"] + _GOOD_FLAGS + ["--alpha", "1", "--eps", "0.1", "--samples", "0"],
     "samples must be >= 1, got 0"),
    (["nonplanar-test"] + _GOOD_FLAGS + ["--samples", "2"], "samples must be >= 3, got 2"),
    (["trajectory", "--Y", "0.5", "--family", "ray central t=-1:1:3"],
     _WEIGHTS_NOT_POSITIVE % "(-1.0, -1.0)"),
    (["trajectory", "--Y", "0.5", "--family", "ray r=1 s=1 t=0:1:3"],
     _WEIGHTS_NOT_POSITIVE % "(0.0, 0.0)"),
    (["di", "--Y", "1/3", "--family", "ray central t=1:1:5", "--horizon", "5", "--eps", "1.0"],
     "lattice route requires 0 < eps < 1, got 1.0"),
    # the region reaches the Cantor set, its center part (radius 0.09) lies
    # in the middle gap
    (["federer-test", "--measure", _CANTOR, "--ball-center", "0.5", "--ball-radius", "0.45",
      "--samples", "100000", "--ball-count", "50"],
     "the ball (center (0.5,), radius 0.09) misses the support of the measure"),
], ids=["equidist-flow-time", "equidist-eps", "equidist-samples", "counterexample-s",
        "counterexample-eps", "escape-samples", "escape-eps", "good-test-samples",
        "nonplanar-test-samples", "trajectory-central-start", "trajectory-weighted-start",
        "di-eps", "federer-test-center-part"])
def test_cli_refused_inputs_exit_before_drawing(rundir, capsys, monkeypatch, argv, error):
    # each rule's one owner refuses the input in the plan: exit 2 and the
    # same line with and without --dry-run, and no block of the stream drawn
    monkeypatch.setattr("dirichlet_lab.rng.stream", None)
    for extra in (["--dry-run"], []):
        assert main(argv + extra) == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: " + error
    assert not (rundir / "runs").exists()


# sha256 of the record lines (after the three header lines), recorded before
# the testers drew through sample(within=ball): perfbench's decay-veronese
# and equidist-k2 commands at a small size, and the two in-ball testers on
# escape-cantor's ball; and recorded before the forms-family checks moved
# into the plans of trajectory and di: a k = 3 family, whose lambda1 values
# are re-anchored in Fractions, and a k = 2 one
_ROOTS = "--m 1 --n 2 --Y 0.41421356,1.73205081 --family 'ray central t=1:0.5:30'"


@pytest.mark.parametrize("command,digest", [
    ('decay --map "veronese n=2" --measure "lebesgue d=1 box=0,1" --ball-center 0.5 '
     '--ball-radius 0.75 --t 6,3,3 --t 8,4,4 --t 10,5,5 --eps 0.05 0.1 0.2 0.4 '
     '--samples 300 --workers 2 --seed 0',
     "440afdae0452861ba96cc4c92b1e1e3460393ecaa1a895bb5c29a5164b333440"),
    ("equidist --interval 0,1 --y0 0.3 --flow-time 9 --eps 0.5 --samples 5000 --workers 1 "
     "--seed 0", "5a73b61bcd18af2d21b49bc7cbae09acd86b6243276e12092cc6520bd11cdf85"),
    ('good-test --map "veronese n=2" --measure "%s" --ball-center 0.7407407 '
     '--ball-radius 0.01 --alpha 0.5 --eps 0.1 0.3 0.736 0.741 0.75 --samples 200000 '
     '--seed 0' % _CANTOR, "ff8caa8086d37aaaa873bc02f9770e802f34a54565f4aebb3eb4417eedd484d0"),
    ('nonplanar-test --map "veronese n=2" --measure "%s" --ball-center 0.7407407 '
     '--ball-radius 0.01 --samples 200000 --seed 0' % _CANTOR,
     "c2e0f6b69566dfb989052904f38d1f85822b264eacd89141e3fb978cc2ab64f6"),
    ("trajectory " + _ROOTS,
     "040831abed0cc877cc1e52477140c793d0d3a85f53012d095ee3393e968dc820"),
    ("di %s --horizon 14 --eps 0.6" % _ROOTS,
     "abb3e5fb6f0e4d381bf9157b9ffd403dd6d38891fae04a217ec22a665299e4e5"),
    ("di --Y 0.6180339887 --family 'ray central t=0.5:0.1:200' --horizon 20 --eps 0.85",
     "1add53607ed8bcc869b91014ce0aeb54a968b4498d9c254a8844822fe22c16cf"),
], ids=["decay-veronese", "equidist-k2", "good-test-cantor", "nonplanar-test-cantor",
        "trajectory-k3", "di-k3", "di-golden-k2"])
def test_cli_records_are_pinned(rundir, capsys, command, digest):
    argv = shlex.split(command)
    assert main(argv) == 0
    capsys.readouterr()
    lines = (rundir / "runs" / argv[0] / "report.jsonl").read_text().splitlines()
    assert hashlib.sha256("\n".join(lines[3:]).encode()).hexdigest() == digest


def _escape_with_t(command, t):
    return [command] + _ESCAPE_FLAGS[:-3] + [t] + _ESCAPE_FLAGS[-2:]


def _on_cantor(argv):
    return [_CANTOR if arg == "lebesgue d=1 box=0,1" else arg for arg in argv]


_T_SCAN = ["escape", "--map", "veronese n=2", "--measure", "lebesgue d=1 box=0,1",
           "--ball-radius", "0.75", "--eps", "0.4", "--samples", "200"]
_ONE_BY_TWO = ["--m", "1", "--n", "2"]
_EQUIDIST = ["equidist", "--flow-time", "3", "--eps", "0.5", "--samples", "1000"]


@pytest.mark.parametrize("argv,flag,form,decimal", [
    (_T_SCAN + ["--t", "6,3,3"], "--ball-center", "1/2", "0.5"),
    (_COUNTEREXAMPLE + ["--systems", "5"], "--s", "3,7/2", "3,3.5"),
    (["trajectory", "--m", "1", "--n", "2", "--Y", "0.5,0.25"], "--family",
     "explicit 4,2,2", "explicit 4 2 2"),
    (_T_SCAN + ["--ball-center", "0.5"], "--t", "6 3 3", "6,3,3"),
    (_COUNTEREXAMPLE[:3] + ["--s", "3", "--systems", "5"], "--u", "1/2", "0.5"),
    (["check"] + _ONE_BY_TWO + ["--Y", "0.5,0.25", "--t", "2,1,1"], "--eps", "1/2", "0.5"),
    (["trajectory"] + _ONE_BY_TWO + ["--Y", "0.5,0.25"], "--family",
     "ray central t=1/2:1/2:3", "ray central t=0.5:0.5:3"),
    (["trajectory"] + _ONE_BY_TWO + ["--family", "explicit 4 2 2"], "--Y",
     "1/2 1/4", "0.5,0.25"),
    (["trajectory", "--family", "explicit 2 2"], "--Y", "-1/2", "-0.5"),
    (_T_SCAN + ["--t", "6,3,3"], "--ball-center", "-1/2", "-0.5"),
    (_EQUIDIST + ["--interval", "0,1"], "--y0", "-1/2", "-0.5"),
    (_EQUIDIST, "--interval", "-1,0", "-1 0"),
], ids=["ball-center-rational", "s-rational", "explicit-commas", "t-spaces",
        "u-rational", "eps-rational", "ray-rational", "Y-spaces", "Y-dash-rational",
        "ball-center-dash-rational", "y0-dash-rational", "interval-dash"])
def test_cli_number_lists_read_one_grammar(rundir, capsys, argv, flag, form, decimal):
    # commas or whitespace, rationals or decimals, a leading '-' or not: the
    # same numbers give the same records, and a converted value is recorded
    # by its value
    reports = []
    for text in (form, decimal):
        assert main(argv + [flag, text, "--output", "out"]) == 0
        reports.append((rundir / "out" / "report.jsonl").read_text().splitlines())
    capsys.readouterr()
    assert reports[0][3:] == reports[1][3:]
    if flag not in ("--family", "--t", "--Y"):
        assert reports[0][2] == reports[1][2]


def _subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_parser_for_one_subcommand_reads_like_the_full_parser(capsys):
    # build_parser(argv) gives only argv's subcommand its parameters; the
    # help texts, and argparse's errors, are the full parser's
    full = cli.build_parser()
    for name in cli._COMMANDS:
        partial = cli.build_parser([name, "--dry-run"])
        assert partial.format_help() == full.format_help()
        assert _subparsers(partial)[name].format_help() == _subparsers(full)[name].format_help()
        assert [other for other, sub in _subparsers(partial).items()
                if len(sub._actions) > 1] == [name]
    outputs = [(["--help"], full.format_help())] + [
        ([name, "--help"], _subparsers(full)[name].format_help()) for name in cli._COMMANDS]
    for argv, text in outputs:
        assert main(argv) == 0
        assert capsys.readouterr().out == text
    for argv in (["decay", "--no-such-flag"], ["escape", "--samples"], ["nope"], []):
        assert main(argv) == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            full.parse_args(argv)
        assert capsys.readouterr().err == err


def test_no_subcommand_flag_is_converted_by_argparse():
    # so no value can bypass _Param._convert
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        assert [action.dest for action in sub._actions if action.type is not None] == [], name


def test_no_parameter_converts_with_float():
    # a scalar reads the number grammar of the lists: config._num
    params = [param for command in cli._COMMANDS.values() for param in command.params]
    params += cli._COMMON + (cli._WORKERS,)
    assert [param.key for param in params if param.conv is float] == []


def test_only_help_is_a_single_dash_option():
    # the subparsers read any token with one leading '-' as a value (argparse's
    # private _negative_number_matcher), which is right while no option has
    # that form
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        for text in ("-1/2", "-0,1", "-.5", "-inf"):
            assert sub._negative_number_matcher.match(text), name
        assert {option for option in sub._option_string_actions
                if sub._negative_number_matcher.match(option)} == {"-h"}, name


@pytest.mark.parametrize("argv,code", [
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "50", "--seed", "-1"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "50", "--workers", "0"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "0"], 2),
    (["decay"] + _ESCAPE_FLAGS + ["--samples", "-3"], 2),
    (["equidist", "--interval", "0,1", "--flow-time", "800", "--eps", "0.5",
      "--samples", "100"], 2),
    (["federer-test", "--measure", "lebesgue d=1 box=0,1", "--ball-center", "0.5",
      "--ball-radius", "0.5", "--samples", "100", "--radius-range", "0.5"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--seed", "-1", "--dry-run"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--workers", "0", "--dry-run"], 2),
    (["counterexample", "--eps", "0.9", "--u", "1000", "--s", "3", "--dry-run"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "0", "--dry-run"], 2),
    (["decay"] + _ESCAPE_FLAGS[:-1] + ["1.5", "--samples", "50", "--dry-run"], 2),
    (["equidist", "--interval", "0,1", "--flow-time", "3", "--eps", "0.5",
      "--samples", "0"], 2),
    (["federer-test", "--measure", "lebesgue d=1 box=0,1", "--ball-center", "0.5",
      "--ball-radius", "0.5", "--samples", "100", "--ball-count", "0"], 2),
    (["good-test"] + _GOOD_FLAGS + ["--alpha", "-1", "--eps", "0.1"], 2),
    (["good-test"] + _GOOD_FLAGS + ["--alpha", "0.5", "--eps", "0.2", "0.1"], 2),
    (["ba", "--Y", "0.5", "--r", "1", "--s", "1", "--q-max", "0"], 2),
    (["check", "--Y", "0.5", "--t", "400,400", "--eps", "0.5"], 2),
    (["trajectory", "--Y", "0.5", "--family", "explicit 400 400"], 2),
    (["trajectory", "--Y", "0.5", "--family", "ray central t=100:100:5"], 2),
    (["trajectory", "--m", "1", "--n", "2", "--Y", "0.5,0.5",
      "--family", "ray r=1 s=1 t=1:1:3"], 2),
    (_escape_with_t("decay", "400,200,200"), 2),
    (_escape_with_t("escape", "60,30,30"), 3),
    (_escape_with_t("escape", "100,50,50"), 3),
    (["di", "--Y", "0.5", "--family", "ray central t=1:1:3", "--eps", "0.5",
      "--horizon", "-1"], 2),
    (["di", "--Y", "0.5", "--family", "ray central t=1:1:3", "--eps", "0.5",
      "--horizon", "10"], 2),
    (["di", "--Y", "0.5", "--family", "ray central t=1:1:3", "--eps", "1.5",
      "--horizon", "3"], 2),
    (["di", "--Y", "0.5", "--family", "ray central t=1:1:3", "--eps", "-0.5",
      "--horizon", "3"], 2),
    (_COUNTEREXAMPLE + ["--s", "400"], 2),
    (_COUNTEREXAMPLE + ["--s", "-3"], 2),
    (_COUNTEREXAMPLE + ["--s", "3", "--systems", "0"], 2),
    (["check", "--Y", "0.5", "--t", "1,1", "--eps", "1.5"], 2),
    (["check", "--m", "1", "--n", "4", "--Y", "0.1,0.2,0.3,0.4",
      "--t", "24,6,6,6,6", "--eps", "1.0"], 3),
    (["nonplanar-test"] + _GOOD_FLAGS[:-1] + ["0"], 2),
    (["nonplanar-test"] + _GOOD_FLAGS[:-1] + ["2"], 2),
    (["check", "--m", "0", "--Y", "0.5", "--t", "1,1", "--eps", "0.5"], 2),
    (["trajectory", "--n", "0", "--Y", "0.5", "--family", "explicit 1 1"], 2),
    (["equidist", "--interval", "0,1", "--flow-time", "12.5", "--eps", "0.5",
      "--samples", "100"], 3),
    ([arg.replace("n=2", "n=1") for arg in _escape_with_t("escape", "13,13")], 3),
    (_on_cantor(["escape"] + _ESCAPE_FLAGS + ["--samples", "50", "--depth", "0"]), 2),
    (_on_cantor(["decay"] + _ESCAPE_FLAGS + ["--samples", "50", "--depth", "0"]), 2),
    (_on_cantor(["good-test"] + _GOOD_FLAGS + ["--alpha", "0.5", "--eps", "0.1",
                                               "--depth", "0"]), 2),
    (_on_cantor(["federer-test", "--measure", "lebesgue d=1 box=0,1", "--ball-center",
                 "0.5", "--ball-radius", "0.5", "--samples", "100", "--depth", "0"]), 2),
    (_on_cantor(["nonplanar-test"] + _GOOD_FLAGS + ["--depth", "0"]), 2),
    (["escape"] + _ESCAPE_FLAGS[:5] + ["0.5,0.5"] + _ESCAPE_FLAGS[6:] + ["--samples", "50"], 2),
    (["nonplanar-test", "--map", "veronese n=2", "--measure", "lebesgue d=2 box=0,1,0,1",
      "--ball-center", "0.5,0.5", "--ball-radius", "0.5", "--samples", "100"], 2),
    (["federer-test", "--measure", "lebesgue d=2 box=0,1,0,1", "--ball-center", "0.5",
      "--ball-radius", "0.5", "--samples", "100"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "50", "--margin", "-1"], 2),
    (["di", "--Y", "0.5", "--family", "ray central t=1:1:3", "--eps", "0.5",
      "--horizon", "3", "--margin", "-1"], 2),
    (["equidist", "--interval", "0,1", "--y0", "inf", "--flow-time", "1", "--eps", "0.5",
      "--samples", "10"], 2),
    (["escape"] + _ESCAPE_FLAGS[:5] + ["nan"] + _ESCAPE_FLAGS[6:] + ["--samples", "50"], 2),
    (["trajectory"] + _SEVEN_FORMS, 2),
    (["di"] + _SEVEN_FORMS + ["--eps", "0.5", "--horizon", "0.34"], 2),
    (["trajectory", "--m", "2", "--n", "1", "--Y", "0.5;0.3", "--family",
      "explicit 200 100 300"], 3),
    (["di", "--m", "2", "--n", "1", "--Y", "0.41421356;0.7320508", "--family",
      "explicit 40 30 70", "--horizon", "70", "--eps", "0.5"], 3),
    (["good-test"] + _GOOD_FLAGS + ["--alpha", "0.5", "--eps", "nan"], 2),
    (["federer-test"] + _GOOD_FLAGS[2:] + ["--center-fraction", "-1"], 2),
    (["federer-test"] + _GOOD_FLAGS[2:] + ["--center-fraction", "nan"], 2),
    (_COUNTEREXAMPLE + ["--s", "3,12"], 3),
    (_COUNTEREXAMPLE + ["--s", "3,12", "--dry-run"], 3),
    (["equidist", "--interval=-1e308,1e308", "--flow-time", "2", "--eps", "0.5"], 2),
    (["equidist", "--interval", "0,1e308", "--y0", "1e308", "--flow-time", "2",
      "--eps", "0.5"], 2),
    (["constants", "--max-n", "30"], 2),
    (_on_cantor(["escape"] + _ESCAPE_FLAGS + ["--samples", "50", "--depth", "1000000000"]), 3),
    (["constants", "--config", "latin1.cfg"], 2),
    (["ba", "--Y", "0.5", "--r", "nan", "--s", "1", "--q-max", "5"], 2),
    (["ba", "--m", "1", "--n", "2", "--Y", "0.5,0.3", "--r", "1", "--s", "nan,nan",
      "--q-max", "5"], 2),
    (_COUNTEREXAMPLE + ["--s", "3", "--seed", "x"], 2),
    (_COUNTEREXAMPLE + ["--s", "3,x"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "50", "--workers", "x"], 2),
    (["equidist", "--interval", "0,1/0", "--flow-time", "3", "--eps", "0.5",
      "--samples", "100"], 2),
    (["check", "--config", "maybe.cfg"], 2),
    (["di", "--Y", "0.5", "--family", "ray central t=1:1:3", "--eps", "0.5",
      "--horizon", "3", "--margin", "inf"], 2),
    (["check", "--Y", "0.5", "--t", "1,1", "--eps", "inf"], 2),
    (_COUNTEREXAMPLE[:3] + ["--u", "1e400", "--s", "3"], 2),
    (["good-test"] + _GOOD_FLAGS + ["--alpha", "nan", "--eps", "0.1"], 2),
    (["check", "--Y", "0.5", "--t", "-0,1", "--eps", "0.5"], 2),
    (["check", "--Y", "0.5", "--t", "1,1", "--eps", "-inf"], 2),
    (_COUNTEREXAMPLE + ["--s", "3,1e-99999999"], 2),
    (["escape", "--map", "poly d=1000000000000 n=1 f1=x1"] + _ESCAPE_FLAGS[2:], 2),
    (["escape", "--map", "veronese n=1000000000000"] + _ESCAPE_FLAGS[2:], 2),
    (["escape", "--map", "poly d=1 n=1000000000000 f1=x1"] + _ESCAPE_FLAGS[2:], 2),
    (["check", "--Y", "1e400", "--t", "1,1", "--eps", "0.5"], 2),
    (["good-test", "--map", "poly d=1 n=1 f1=1e400*x1"] + _GOOD_FLAGS[2:]
     + ["--alpha", "0.5", "--eps", "0.1"], 2),
    (["trajectory", "--Y", "0.5", "--family", "ray central t=1:1e-300:1000000000000"], 2),
    (["good-test", "--map", "poly d=1 n=1 f1=1e300*1e300*x1"] + _GOOD_FLAGS[2:]
     + ["--alpha", "0.5", "--eps", "0.1"], 2),
    (["escape"] + _ESCAPE_FLAGS + ["--t", "6,3,3", "--samples", "50"], 2),
    (["decay"] + _ESCAPE_FLAGS + ["0.2", "--t", "6.0,3,3.0", "--samples", "50"], 2),
], ids=["negative-seed", "zero-workers", "escape-zero-samples",
        "decay-negative-samples", "flow-time-overflow", "one-number-radius-range",
        "negative-seed-dry-run", "zero-workers-dry-run", "counterexample-huge-u",
        "escape-zero-samples-dry-run", "decay-bad-eps-dry-run",
        "equidist-zero-samples", "federer-zero-ball-count", "good-test-negative-alpha",
        "good-test-decreasing-eps", "ba-zero-q-max",
        "check-weight-overflow", "explicit-weight-overflow", "ray-weight-overflow",
        "ray-weights-missized", "decay-weight-overflow", "escape-over-scan-budget",
        "escape-grid-past-int64", "di-negative-horizon", "di-stretch-not-reached",
        "di-eps-above-one", "di-negative-eps",
        "counterexample-s-overflow", "counterexample-negative-s",
        "counterexample-zero-systems", "check-eps-above-one", "check-over-direct-budget",
        "nonplanar-zero-samples", "nonplanar-too-few-samples", "check-zero-m",
        "trajectory-zero-n", "equidist-over-precision-cap", "escape-over-precision-cap",
        "escape-ifs-zero-depth", "decay-ifs-zero-depth",
        "good-test-ifs-zero-depth", "federer-ifs-zero-depth", "nonplanar-ifs-zero-depth",
        "escape-ball-off-dimension", "nonplanar-map-off-dimension",
        "federer-region-off-dimension", "escape-negative-margin", "di-negative-margin",
        "equidist-infinite-y0", "escape-nan-ball-center", "trajectory-over-max-dim",
        "di-over-max-dim", "trajectory-past-precision-cap", "di-past-precision-cap",
        "good-test-nan-eps", "federer-negative-center-fraction",
        "federer-nan-center-fraction", "counterexample-past-precision-cap",
        "counterexample-past-precision-cap-dry-run", "equidist-interval-width-overflow",
        "equidist-translate-overflow", "constants-threshold-underflow",
        "escape-ifs-depth-over-cap", "config-not-utf8", "ba-nan-r", "ba-nan-s",
        "counterexample-seed-not-integer", "counterexample-s-not-numbers", "escape-workers-not-integer",
        "equidist-interval-divides-by-zero", "config-switch-not-boolean",
        "di-infinite-margin", "check-infinite-eps", "counterexample-u-overflow",
        "good-test-nan-alpha", "check-t-dash-leading", "check-eps-minus-infinity",
        "counterexample-s-exponent-unbounded", "escape-poly-d-unbounded",
        "escape-veronese-n-unbounded", "escape-poly-n-unbounded", "check-Y-overflow",
        "good-test-coefficient-overflow", "trajectory-ray-count-unbounded",
        "good-test-coefficient-product-overflow", "escape-t-given-twice",
        "decay-t-given-twice"])
def test_cli_bad_input_is_an_error_not_a_crash(rundir, capsys, argv, code):
    # --dry-run validates what the run validates: with and without it the
    # input exits with the same code and the same one error line
    (rundir / "latin1.cfg").write_bytes(b"[run]\nexperiment = constants\nmax_n = 3 # \xff\n")
    (rundir / "maybe.cfg").write_text(_CHECK_CFG + "weak_q = maybe\n")
    if "--dry-run" in argv:
        twin = [arg for arg in argv if arg != "--dry-run"]
    else:
        twin = argv + ["--dry-run"]
    errs = []
    for args in (argv, twin):
        assert main(args) == code
        errs.append(capsys.readouterr().err.splitlines())
    assert len(errs[0]) == 1 and errs[0][0].startswith("error:")
    assert errs[0] == errs[1]
    assert not (rundir / "runs").exists()


_POWER_2000 = ["--map", "poly d=1 n=1 f1=x1^2000", "--measure", "lebesgue d=1 box=0,2",
               "--ball-center", "1", "--ball-radius", "1"]


@pytest.mark.parametrize("argv", [
    ["nonplanar-test"] + _POWER_2000 + ["--samples", "100"],
    ["escape"] + _POWER_2000 + ["--t", "2,2", "--eps", "0.4", "--samples", "50"],
    ["good-test"] + _POWER_2000 + ["--alpha", "0.5", "--eps", "0.1", "--samples", "100"],
], ids=["nonplanar-test", "escape", "good-test"])
def test_cli_map_values_that_overflow_stop_the_run(rundir, capsys, argv):
    # x1^2000 overflows beyond x1 = 1.43: only the sampled points show it,
    # so --dry-run passes the plan, and the run exits 2 before it writes
    assert main(argv + ["--dry-run"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: map values are not finite at some sampled points"]
    assert not (rundir / "runs").exists()


@pytest.mark.parametrize("argv,err", [
    (["escape"] + _ESCAPE_FLAGS + ["--samples", "100"],
     "error: batched reduction did not converge within 1 sweeps"),
    (["trajectory"] + _ONE_BY_TWO + ["--Y", "0.5,0.3", "--family", "ray r=1 s=0.5,0.5 t=2:1:3"],
     "error: basis reduction did not converge within 1 iterations"),
], ids=["escape", "trajectory"])
def test_cli_reduction_that_does_not_converge_exits_3(rundir, capsys, monkeypatch, argv, err):
    # only the run reduces lattices, so --dry-run passes the plan
    monkeypatch.setattr(lattice, "_REDUCE_ITER_CAP", 1)
    assert main(argv + ["--dry-run"]) == 0
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [err]
    assert not (rundir / "runs").exists()


# Value pools for the generic dry-run test: (usual, unusual) texts, the
# unusual ones out of range, malformed, or too large for a budget.  A
# parameter draws from the pool under its key, else from the pool of its
# conversion; sizes stay tiny so that each run is cheap.
_NUMBERS = {
    int: (("1", "2", "3", "20"), ("-1", "0", "x")),
    _num: (("0.4", "0.9", "1/2"),
           ("-1", "-1/2", "-.5", "-0", "-inf", "0", "0.05", "1", "1.5", "3", "400",
            "nan", "inf", "1e400", "x", "1/0")),
}
_TEXTS = {
    "seed": (("0", "3"), ("-1", "x")),
    "workers": (("1", "2"), ("0", "x")),
    "coord": (("1", "2"), ("0", "3", "x")),
    "margin": (("1e-09", "0.001"), ("-1", "nan", "400", "x")),
    "m": (("1",), ("0", "2")),
    "n": (("1",), ("0", "2")),
    "Y": (("0.5", "1/3", "-1/3"), ("abc", "", "0.3,0.7", "0.3 0.7", "0.3;0.7")),
    "t": (("1,1", "2,1,1"), ("60,30,30", "400,200,200", "1,x", "1,1,1,1", "-0,1")),
    "trajectory": (("ray central t=1:1:3", "ray r=1 s=1 t=1:1:3", "explicit 1 1"),
                   ("explicit 2 1 1", "ray central t=100:100:5", "ray central t=1:1")),
    "map": (("veronese n=1", "veronese n=2"), ("veronese", "poly d=2 n=1 f1=x1*x2")),
    "measure": (("lebesgue d=1 box=0,1", _CANTOR),
                ("ifs ratios=2 trans=0", "normal", "lebesgue d=2 box=0,1,0,1")),
    "ball_center": (("0.5", "0.7407407"), ("0.5,0.5", "nan", "", "1/0", "-1/2")),
    "interval": (("0,1", "0.4,0.9", "-1,0"), ("1,0", "0", "0,1,2", "0,x")),
    "radius_range": (("0.5,1", "0.9,0.9"), ("1,0.5", "0.5", "0,1", "x")),
    "r": (("1", "0.4,0.6"), ("0.5", "-1", "1/0")),
    "s": (("1", "3,4"), ("-3", "400", "0.5", "3,x")),
}


@st.composite
def _cli_argv(draw):
    """A subcommand with usual values for every parameter of its table but
    at most one, which is unusual or, if required, left out.  Defaults are
    never left to stand, since some are costly sizes."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    params = command.params
    if command.sampling:
        params += (cli._WORKERS,)
    odd = draw(st.sampled_from((None,) + params))

    def text(param):
        pools = _TEXTS.get(param.key) or _NUMBERS[
            _num if param.conv is _num_list else param.conv]
        return draw(st.sampled_from(pools[param is odd]))

    argv = [name]
    for param in params:
        flag = param.option
        if param.kind == "switch":
            argv += [flag] * draw(st.booleans())
            continue
        if param is odd and param.required and draw(st.booleans()):
            continue
        count = draw(st.sampled_from((1, 1, 1, 2, 3)))
        if param.conv is _num_list and param.key not in _TEXTS:
            argv += [flag, ",".join(text(param) for _ in range(count))]
        elif param.kind == "list":
            argv += [flag] + [text(param) for _ in range(count)]
        else:
            for _ in range(count if param.kind == "append" else 1):
                argv += [flag, text(param)]
    return argv


_PARSER = cli.build_parser()


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_cli_dry_run_fails_like_the_run(rundir, capsys, monkeypatch, argv):
    # same exit code and first error line with and without --dry-run
    run, raised, stream, streams = cli._run, [], rng.stream, []

    def recording_run(args):
        try:
            return run(args)
        except Exception as exc:
            raised.append(exc)
            raise

    def counting_stream(*args, **kwargs):
        streams.append(args)
        return stream(*args, **kwargs)

    outcomes = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_run", recording_run)
        patch.setattr(rng, "stream", counting_stream)
        # one parser serves every example: building it is most of a run's time
        patch.setattr(cli, "build_parser", lambda *_: _PARSER)
        for extra in (["--dry-run"], []):
            streams.clear()
            code = main(argv + extra)
            err = capsys.readouterr().err.splitlines()
            outcomes.append((code, next((line for line in err if "error:" in line), None)))
    if raised and isinstance(raised[-1], EmptySupportError) and streams:
        # a ball the sampled support misses shows only by sampling: the
        # run drew before it raised; one raised before any draw is the plan's
        assert outcomes[0] == (0, None)
    else:
        assert outcomes[0] == outcomes[1]


def test_cli_decay_checks_the_nondivergence_exponent(rundir, capsys):
    assert main(["decay"] + _ESCAPE_FLAGS + ["0.2", "--samples", "400"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Veronese n=2: one variable, degree 2, so alpha_theory = 1/2
    assert "nondivergence: alpha_theory=0.5 pass=True" in lines
    # the per-t slope, stdout only: the payload holds the cells
    slope = lines[0]
    assert slope.startswith("t=[6.0, 3.0, 3.0] slope=")
    assert float(slope.split("slope=")[1]) > 0.4
    assert "slope" not in (rundir / "runs" / "decay" / "report.jsonl").read_text()


# one small run per subcommand
_SMALL_RUNS = {
    "check": ["--Y", "0.5", "--t", "1,1", "--eps", "0.3"],
    "trajectory": ["--Y", "1/3", "--family", "ray central t=1:1:4"],
    "di": ["--Y", "1/3", "--family", "ray central t=1:1:5", "--eps", "0.5", "--horizon", "5"],
    "escape": _ESCAPE_FLAGS + ["--samples", "100"],
    "decay": _ESCAPE_FLAGS + ["0.2", "--samples", "400"],
    "equidist": ["--interval", "0,1", "--flow-time", "3", "--eps", "0.5", "--samples", "1000"],
    "counterexample": _COUNTEREXAMPLE[1:] + ["--s", "3", "--systems", "2"],
    "good-test": _GOOD_FLAGS + ["--alpha", "1", "--eps", "0.1", "0.2"],
    "federer-test": ["--measure", "lebesgue d=1 box=0,1", "--ball-center", "0.5",
                     "--ball-radius", "0.5", "--samples", "2000", "--ball-count", "20"],
    "nonplanar-test": _GOOD_FLAGS,
    "ba": ["--Y", "0.6180339887498949", "--r", "1", "--s", "1", "--q-max", "20"],
    "constants": [],
}


# the subcommands that draw random numbers, and those that read one eps
_SEEDED = ("escape", "decay", "equidist", "counterexample", "good-test", "federer-test",
           "nonplanar-test")
_ONE_EPS = ("check", "di", "equidist", "counterexample")


def _help(name, capsys) -> str:
    assert main([name, "--help"]) == 0
    return capsys.readouterr().out


def test_cli_declares_only_the_flags_its_run_reads(tmp_path, rundir, capsys):
    # --seed: exactly the subcommands that draw random numbers, and each of
    # them reads it (seeds 0 and 1 give different records)
    assert [name for name in cli._COMMANDS if "--seed" in _help(name, capsys)] \
        == list(_SEEDED)
    for name in _SEEDED:
        records = []
        for seed in ("0", "1"):
            out = tmp_path / name / seed
            assert main([name] + _SMALL_RUNS[name] + ["--seed", seed, "--output", str(out)]) == 0
            lines = (out / "report.jsonl").read_text().splitlines()[3:]
            records.append([{key: value for key, value in json.loads(line).items()
                             if key != "seed"} for line in lines])
        assert records[0] != records[1], name
    capsys.readouterr()
    assert main(["check"] + _SMALL_RUNS["check"] + ["--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    # --eps: one number where the run reads one
    for name in _ONE_EPS:
        text = _help(name, capsys)
        assert "[--eps EPS]" in text and "[EPS ...]" not in text, name
        argv = [name] + _SMALL_RUNS[name] + ["--eps", "0.1", "0.2"]
        assert main(argv) == 2, name
        assert "unrecognized arguments: 0.2" in capsys.readouterr().err, name
    assert not (rundir / "runs").exists()


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_cli_help_lists_the_csv_columns_a_run_writes(name, rundir, capsys):
    description = cli._COMMANDS[name].description
    assert description.startswith("CSV columns: "), name
    assert main([name] + _SMALL_RUNS[name]) == 0
    capsys.readouterr()
    text = (rundir / "runs" / name / "report.csv").read_text()
    header = next(line for line in text.splitlines() if not line.startswith("#"))
    assert header.split(",") == description[len("CSV columns: "):].split(";")


_CHECK_CFG = "[run]\nexperiment = check\nY = 0.5\nt = 1,1\neps = 0.3\n"
_CONFIGS = {
    "check": _CHECK_CFG,
    "counterexample": "[run]\nexperiment = counterexample\neps = 0.9\nu = 0.4054651\n"
                      "s = 3\nsystems = 2\n",
}


@pytest.mark.parametrize("name,extra,fragment", [
    ("check", "foo = 1", "unknown config key 'foo' for check"),
    ("counterexample", "seed = abc", "bad value for --seed: 'abc'"),
    ("check", "t = 9,9", "config key 't' given more than once"),
    ("check", "Y = 0.25", "config key 'Y' given more than once"),
    ("check", "samples = 10", "unknown config key 'samples' for check"),
    ("check", "trajectory = explicit 1 1", "unknown config key 'trajectory' for check"),
    ("check", "workers = 2", "unknown config key 'workers' for check"),
    ("check", "seed = 0", "unknown config key 'seed' for check"),
], ids=["unknown-key", "seed-not-integer", "repeated-t", "repeated-Y",
        "samples-not-read", "trajectory-not-read", "workers-not-a-key", "seed-not-read"])
def test_cli_config_key_the_run_cannot_use_is_an_error(rundir, capsys, name, extra, fragment):
    (rundir / "run.cfg").write_text(_CONFIGS[name] + extra + "\n")
    assert main([name, "--config", "run.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not (rundir / "runs").exists()
    # without the extra line the same file runs
    (rundir / "run.cfg").write_text(_CONFIGS[name])
    assert main([name, "--config", "run.cfg"]) == 0
    capsys.readouterr()


def test_readme_config_example_is_a_valid_plan(rundir, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(examples) == 1
    (rundir / "readme.cfg").write_text(examples[0])
    assert main(["escape", "--config", "readme.cfg", "--dry-run"]) == 0
    # both t lines of the example are read, in order
    assert "t = 6,3,3\nt = 8,4,4\n" in capsys.readouterr().out


# Per subcommand: flags, and the config.resolved text of the plan that
# --dry-run prints for them (with --output out, and --seed 7 where the
# subcommand draws random numbers).  Option order is
# the order of the subcommand's parameter table; omitted flags pin defaults.
_PLANS = {
    'check': (
        '--m 1 --n 2 --Y 0.41421356,1.73205081 --t 4,2,2 --eps 0.5 --weak-q',
        """\
[run]
experiment = check
output = out
eps = 0.5
m = 1
n = 2
Y = 0.41421356,1.73205081
t = 4,2,2
weak_q = true
"""),
    'trajectory': (
        '--Y 1/3 --family "ray central t=1:1:4"',
        """\
[run]
experiment = trajectory
output = out
trajectory = ray central t=1:1:4
m = 1
n = 1
Y = 1/3
"""),
    'di': (
        '--m 1 --n 1 --Y 1/3 --family "explicit 1 1" --family "explicit 2 2" --eps 0.5 --horizon 2 --margin 1e-7',
        """\
[run]
experiment = di
output = out
eps = 0.5
margin = 1e-07
trajectory = explicit 1 1
trajectory = explicit 2 2
m = 1
n = 1
Y = 1/3
horizon = 2.0
"""),
    'escape': (
        '--map "veronese n=2" --measure "lebesgue d=1 box=0,1" --ball-center 0.5 --ball-radius 0.75 --t 6,3,3 --t 4,2,2 --eps 0.4 0.1 --samples 500 --margin 1e-8 --depth 12',
        """\
[run]
experiment = escape
seed = 7
output = out
eps = 0.4 0.1
samples = 500
margin = 1e-08
measure = lebesgue d=1 box=0,1
map = veronese n=2
ball_center = 0.5
ball_radius = 0.75
t = 6,3,3
t = 4,2,2
depth = 12
"""),
    'decay': (
        '--map "veronese n=2" --measure "lebesgue d=1 box=0,1" --ball-center 0.5 --ball-radius 2 --t 2,1,1 --eps 0.2',
        """\
[run]
experiment = decay
seed = 7
output = out
eps = 0.2
samples = 20000
margin = 1e-09
measure = lebesgue d=1 box=0,1
map = veronese n=2
ball_center = 0.5
ball_radius = 2.0
t = 2,1,1
depth = 20
"""),
    'equidist': (
        '--interval 0,1 --flow-time 3 --eps 0.5 --samples 2000',
        """\
[run]
experiment = equidist
seed = 7
output = out
eps = 0.5
samples = 2000
margin = 1e-09
interval = 0.0 1.0
y0 = 0.0
flow_time = 3.0
"""),
    'counterexample': (
        '--eps 0.9 --u 0.4054651 --s 3,4',
        """\
[run]
experiment = counterexample
seed = 7
output = out
eps = 0.9
u = 0.4054651
s = 3.0 4.0
systems = 100
"""),
    'good-test': (
        '--map "veronese n=2" --coord 2 --measure "lebesgue d=1 box=0,1" --ball-center 0.5 --ball-radius 0.5 --alpha 0.5 --eps 0.01 0.1 --samples 2000',
        """\
[run]
experiment = good-test
seed = 7
output = out
eps = 0.01 0.1
samples = 2000
measure = lebesgue d=1 box=0,1
map = veronese n=2
ball_center = 0.5
ball_radius = 0.5
coord = 2
alpha = 0.5
depth = 20
"""),
    'federer-test': (
        '--measure "ifs ratios=1/3,1/3 trans=0,2/3" --ball-center 0.25 --ball-radius 0.25 --samples 5000 --center-fraction 0.3 --depth 15',
        """\
[run]
experiment = federer-test
seed = 7
output = out
samples = 5000
measure = ifs ratios=1/3,1/3 trans=0,2/3
ball_center = 0.25
ball_radius = 0.25
ball_count = 200
depth = 15
center_fraction = 0.3
radius_range = 0.8 1.0
"""),
    'nonplanar-test': (
        '--map "veronese n=2" --measure "lebesgue d=1 box=0,1" --ball-center 0.5 --ball-radius 0.5',
        """\
[run]
experiment = nonplanar-test
seed = 7
output = out
samples = 20000
measure = lebesgue d=1 box=0,1
map = veronese n=2
ball_center = 0.5
ball_radius = 0.5
depth = 20
"""),
    'ba': (
        '--m 1 --n 1 --Y 0.6180339887498949 --r 1 --s 1 --q-max 200',
        """\
[run]
experiment = ba
output = out
m = 1
n = 1
Y = 0.6180339887498949
r = 1.0
s = 1.0
q_max = 200
"""),
    'constants': (
        '',
        """\
[run]
experiment = constants
output = out
max_n = 4
"""),
}


def _config_from_flags(command: str, argv: list) -> str:
    """The equivalent config file: each key is its flag with '-' -> '_'
    ('--family' is 'trajectory'), written in reverse order of first use."""
    groups: dict = {}
    for tok in argv:
        if tok.startswith("--"):
            values = []
            key = "trajectory" if tok == "--family" else tok[2:].replace("-", "_")
            groups.setdefault(key, []).append(values)
        else:
            values.append(tok)
    lines = ["[run]", "experiment = %s" % command]
    for key in reversed(list(groups)):
        lines.extend("%s = %s" % (key, " ".join(v) or "true") for v in groups[key])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", list(_PLANS))
def test_cli_plan_pinned_for_flags_and_config(rundir, capsys, command):
    flags, body = _PLANS[command]
    argv = shlex.split(flags) + ["--seed", "7"] * (command in _SEEDED) + ["--output", "out"]
    expected = ("dry-run: plan resolved, nothing computed or written\n"
                "would write: out/report.jsonl\n" + body)
    assert main([command] + argv + ["--dry-run"]) == 0
    assert capsys.readouterr().out == expected
    (rundir / "plan.cfg").write_text(_config_from_flags(command, argv))
    assert main([command, "--config", "plan.cfg", "--dry-run"]) == 0
    assert capsys.readouterr().out == expected
    # the plan a run writes is itself a config file that gives the same plan
    (rundir / "plan.cfg").write_text(body)
    assert main([command, "--config", "plan.cfg", "--dry-run"]) == 0
    assert capsys.readouterr().out == expected
    assert not (rundir / "out").exists()
    assert main([command, "--help"]) == 0
    capsys.readouterr()
