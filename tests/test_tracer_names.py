"""perfbench's tracer wraps functions it looks up by name at install: each
(module, attribute) it lists must exist, or `--trace 1` fails at start."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for _, module, attr, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert tracer.TRACED and not missing, missing
