"""perfbench's tracer wraps functions it looks up by name at install: each
(module, attribute) it lists must exist, or `--trace 1` fails at start, and
its counters read those functions' arguments and results."""

import importlib
import importlib.util
import os

from qcubic import cones, elliptic
from qcubic.hessian import hess_w
from qcubic.sampling import rng_for, unit_sphere, STREAM_CONE

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _tracer_module()
    missing = [(module, attr) for _, module, attr, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert tracer.TRACED and not missing, missing


def test_cache_counters_read_their_calls(tmp_path):
    # viscosity-cached's `--trace 1` counts the cache's rows and bytes from
    # save_cache(sigma, path) and load_cache(path, ...)'s result
    mod = _tracer_module()
    sigma = elliptic.build_sigma(12, 3, elliptic.operator_cone("paper"))
    path = os.path.join(tmp_path, "sigma.cache")
    tracer = mod.Tracer()
    undo = mod.install(tracer)
    try:
        elliptic.save_cache(sigma, path)
        elliptic.load_cache(path, 3, 12, "paper")
    finally:
        mod.uninstall(undo)
    layers = tracer.layers()
    size = os.path.getsize(path)
    for name in ("elliptic.save_cache", "elliptic.load_cache"):
        assert layers[name]["calls"] == 1
        assert (layers[name]["rows"], layers[name]["bytes"]) == (12, size)
    # uninstalled: no later test runs a wrapper
    assert not any(hasattr(f, "__wrapped__")
                   for f in (elliptic.save_cache, elliptic.load_cache))


def test_operator_counters_read_their_calls():
    # operator-probe's `--trace 1` counts pairs from g_tilde(z, sigma), which
    # sigma.F calls, validate_graph(sigma) and cone_condition(mats, cone)
    mod = _tracer_module()
    sigma = elliptic.build_sigma(12, 3, elliptic.operator_cone("paper"))
    mats = hess_w(unit_sphere(rng_for(4, STREAM_CONE), 5))
    tracer = mod.Tracer()
    undo = mod.install(tracer)
    try:
        sigma.F(mats)
        elliptic.validate_graph(sigma)
        cones.cone_condition(mats[:4], sigma.cone)
    finally:
        mod.uninstall(undo)
    layers = tracer.layers()
    assert {name: (layers[name]["calls"], layers[name]["pairs"])
            for name in ("elliptic.g_tilde", "elliptic.validate_graph",
                         "cones.cone_condition")} == {
        "elliptic.g_tilde": (1, 5 * 12),
        "elliptic.validate_graph": (1, 12 * 11 // 2),
        "cones.cone_condition": (1, 4 * 3 // 2)}
    assert not any(hasattr(f, "__wrapped__") for f in (
        elliptic.g_tilde, elliptic.validate_graph, elliptic.cone_condition,
        cones.cone_condition))
