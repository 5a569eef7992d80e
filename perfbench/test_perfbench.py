"""Self-checks of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench

The count checks trace two in-process passes of a small build-operator
configuration.  Exact counters must repeat across the passes, and at the
seed code they equal their closed forms: validate_graph checks n(n-1)/2
pairs with one eigensolve row per pair, and g_tilde solves one row per
(evaluation point, sample point) pair.  Those equalities prove the
wrappers see the direct np.linalg calls inside elliptic; a change that
prunes eigensolves lowers eig_rows_per_pair below 1 and must say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)

import tracer as tr  # noqa: E402

SMALL = {"sigma_count": 40, "ratio_pairs": 2000, "heldout_count": 10,
         "elliptic_trials": 8, "monotonicity_trials": 20,
         "viscosity_trials": 10}


def _traced_passes(tmp_path, count=2):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("".join("%s = %d\n" % kv for kv in SMALL.items()))
    layers = []
    for k in range(count):
        out = tmp_path / ("out%d" % k)
        out.mkdir()
        tracer = tr.Tracer()
        undo = tr.install(tracer)
        try:
            _, codes = run.in_process_pass("operator-probe", 5, str(cfg),
                                           str(out), tracer)
        finally:
            tr.uninstall(undo)
        assert codes == [0]
        layers.append(tracer.layers())
    return layers


def test_counts_repeat_and_equal_closed_forms(tmp_path):
    first, second = _traced_passes(tmp_path)
    assert run.exact_counts(first) == run.exact_counts(second)

    n = SMALL["sigma_count"]
    graph = first["elliptic.validate_graph"]
    assert graph["calls"] == 1
    assert graph["pairs"] == n * (n - 1) // 2
    assert graph["eig_rows"] == graph["pairs"]
    gauge = first["elliptic.g_tilde"]
    assert gauge["pairs"] > 0 and gauge["pairs"] % n == 0
    assert gauge["eig_rows"] == gauge["pairs"]

    metrics = run.layer_metrics([first, second], 0.0)
    assert metrics["elliptic.validate_graph.eig_rows_per_pair"]["value"] == 1.0
    assert metrics["elliptic.g_tilde.eig_rows_per_pair"]["value"] == 1.0
    assert metrics["cones.cone_condition.pairs"]["value"] == 2 * n * (n - 1) // 2


def test_install_reaches_every_binding_and_uninstall_restores():
    import numpy as np
    from qcubic import cli, elliptic

    before = (np.linalg.eigvalsh, cli.zero_level_curve,
              elliptic.validate_graph, elliptic.hess_w)
    undo = tr.install(tr.Tracer())
    try:
        assert np.linalg.eigvalsh is not before[0]
        assert cli.zero_level_curve is elliptic.zero_level_curve
        assert cli.zero_level_curve is not before[1]
        assert elliptic.validate_graph is not before[2]
        assert elliptic.hess_w is not before[3]
    finally:
        tr.uninstall(undo)
    assert (np.linalg.eigvalsh, cli.zero_level_curve,
            elliptic.validate_graph, elliptic.hess_w) == before


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layer = run.layer_metrics([{}], 0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(k, v["unit"]) for k, v in layer.items()]
    e2e = run.end_to_end_metrics([1.0], {"a": [1.0]}, [1.0], 1.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(k, v["unit"]) for k, v in e2e.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
