"""Tests of the benchmark itself: exact counts repeat, probes come off
cleanly, and the output checks reject bad reports.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import run
import tracing
from tracing import EXACT, Tracer, layer_metrics
from workloads import WORKLOADS, _counterexample_problems, _equidist_problems, _escape_problems

# small sizes: a few tenths of a second per call
SMALL = {"decay-veronese": 300, "escape-cantor": 500, "equidist-k2": 5000,
         "counterexample-k3": 5}


def _traced_call(name, out_dir, seed=3):
    cli = run.load_cli()
    workload = WORKLOADS[name]
    argv = workload.argv(seed, str(out_dir), SMALL[name])
    with Tracer() as tracer:
        call = run.run_call(cli, workload, argv, out_dir, SMALL[name])
    assert call.problems == []
    assert tracer.absent == []
    return call, layer_metrics(tracer.spans, call.boundary_n)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat(name, tmp_path):
    first, a = _traced_call(name, tmp_path)
    second, b = _traced_call(name, tmp_path)
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}
    assert first.payload == second.payload


def test_qgrid_evals_match_the_grid_size(tmp_path):
    # t = (6,3,3), (8,4,4), (10,5,5) at cap ~0.4: 17^2 + 43^2 + 119^2 points
    _, layers = _traced_call("decay-veronese", tmp_path)
    assert layers["experiments.qgrid.evals"] == SMALL["decay-veronese"] * (289 + 1849 + 14161)
    assert layers["lattice.reduce_basis.calls"] == 0


def test_counterexample_counts_one_reduction_per_lattice(tmp_path):
    _, layers = _traced_call("counterexample-k3", tmp_path)
    assert layers["lattice.reduce_basis.calls"] == 6 * SMALL["counterexample-k3"]
    assert layers["lattice.svp_ms.p50"] > 0.0


@pytest.mark.parametrize("code", [0, 2])
def test_a_call_without_a_good_report_fails(code, tmp_path):
    class Cli:  # exits with ``code`` and writes nothing
        @staticmethod
        def main(argv):
            return code

    call = run.run_call(Cli, WORKLOADS["equidist-k2"], [], tmp_path, 1)
    assert call.problems and call.payload is None


def test_probes_are_restored():
    run.load_cli()
    import dirichlet_lab.experiments as experiments
    import dirichlet_lab.rng as rng

    before = (experiments._lambda1_rows_batch, rng.stream)
    with Tracer():
        assert experiments._lambda1_rows_batch is not before[0]
    assert (experiments._lambda1_rows_batch, rng.stream) == before


def test_missing_attribute_is_reported_absent(monkeypatch):
    run.load_cli()
    probes = tracing.PROBES + (("gone.layer", "dirichlet_lab.lattice", "no_such_kernel", None),
                               ("gone.module", "dirichlet_lab.no_such_module", "f", None))
    monkeypatch.setattr(tracing, "PROBES", probes)
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["gone.layer", "gone.module"]


def _cell(t, eps, fraction, n=10, boundary_n=0):
    return {"t": list(t), "eps": eps, "fraction": fraction, "n": n, "boundary_n": boundary_n}


def test_escape_check_rejects_bad_tables():
    good = [_cell((6, 3, 3), e, f) for e, f in ((0.05, 0.0), (0.1, 0.1), (0.2, 0.2), (0.4, 0.5))]
    assert _escape_problems(good, 1, 10) == []
    assert _escape_problems(good[:3], 1, 10)  # missing cell
    unsorted = [dict(c) for c in good]
    unsorted[1]["fraction"] = 0.3  # above the eps = 0.2 cell
    assert _escape_problems(unsorted, 1, 10)
    miscounted = [dict(c) for c in good]
    miscounted[0]["boundary_n"] = 1
    assert _escape_problems(miscounted, 1, 10)
    out_of_range = [dict(c) for c in good]
    out_of_range[3]["fraction"] = 1.5
    assert _escape_problems(out_of_range, 1, 10)


def test_equidist_and_counterexample_checks():
    assert _equidist_problems([{"discrepancy": 0.001}], 10) == []
    assert _equidist_problems([{"discrepancy": -0.05}], 10)
    case = {"primitive_ok": True, "lambda1_below_eps": True, "near_vector_q": 3}
    assert _counterexample_problems([case] * 6, 1) == []
    assert _counterexample_problems([case] * 5, 1)
    assert _counterexample_problems([case] * 5 + [dict(case, near_vector_q=0)], 1)


def test_tail_needs_ten_values_beyond_it():
    assert run.tail(list(range(19))) is None
    p, value = run.tail(list(range(1, 41)))
    assert p == 75 and value == 30


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
