"""In-memory span tracer that wraps qcubic's public functions at run time.

Nothing under ``src/`` is edited: :func:`install` replaces each traced
function object with a wrapper in every loaded ``qcubic`` module that holds
it (``from .x import f`` copies the name, so the defining module alone is
not enough), and in ``numpy.linalg`` for ``eigvalsh``/``eigh``, which many
call sites reach directly.  :func:`uninstall` puts the originals back.

A span is (id, name, start, end, parent, counts).  Spans stay in memory and
are written out by the caller at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _rows(shape, core: int) -> int:
    """Number of stacked items in an array whose last ``core`` axes are one item."""
    return int(math.prod(shape[:len(shape) - core])) if len(shape) >= core else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _eig_rows(args, kwargs, result):
    return {"rows": _rows(np.shape(_arg(args, kwargs, 0, "a")), 2)}


def _coord_rows(args, kwargs, result):
    return {"rows": _rows(np.shape(_arg(args, kwargs, 0, "mat")), 2)}


def _embed_rows(args, kwargs, result):
    return {"rows": _rows(np.shape(_arg(args, kwargs, 0, "z")), 1)}


def _hess_points(args, kwargs, result):
    return {"points": _rows(np.shape(_arg(args, kwargs, 0, "x")), 1)}


def _matrix_pairs(args, kwargs, result):
    n = int(np.shape(_arg(args, kwargs, 0, "mats"))[0])
    return {"pairs": n * (n - 1) // 2}


def _graph_pairs(args, kwargs, result):
    n = _arg(args, kwargs, 0, "sigma").count
    return {"pairs": n * (n - 1) // 2}


def _gauge_pairs(args, kwargs, result):
    z = np.asarray(_arg(args, kwargs, 0, "z"))
    n_eval = 1 if z.ndim == 1 else z.shape[0]
    return {"pairs": n_eval * _arg(args, kwargs, 1, "sigma").count}


def _saved(args, kwargs, result):
    return {"rows": _arg(args, kwargs, 0, "sigma").count,
            "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _loaded(args, kwargs, result):
    return {"rows": result.count,
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (span name, module, attribute, counter).  Module names are resolved at
# install time; the wrapper is installed wherever the function object is bound.
TRACED = [
    ("eigen.eigvalsh", "numpy.linalg", "eigvalsh", _eig_rows),
    ("eigen.eigh", "numpy.linalg", "eigh", _eig_rows),
    ("eigen.jacobi", "qcubic.eigen", "jacobi_eigh", None),
    ("symspace.embed_traceless", "qcubic.symspace", "embed_traceless", _embed_rows),
    ("symspace.to_coords", "qcubic.symspace", "to_coords", _coord_rows),
    ("cubic.spectrum_sweep", "qcubic.cubic", "spectrum_sweep", None),
    ("cubic.perp_sweep", "qcubic.cubic", "perp_sweep", None),
    ("cubic.invariants_mn", "qcubic.cubic", "invariants_mn", None),
    ("hessian.hess_w", "qcubic.hessian", "hess_w", _hess_points),
    ("hessian.witness_sweep", "qcubic.hessian", "witness_sweep", None),
    ("hessian.pair_ratio_sweep", "qcubic.hessian", "pair_ratio_sweep", None),
    ("hessian.ratio_bound_estimate", "qcubic.hessian", "ratio_bound_estimate", None),
    ("hessian.third_derivative_sweep", "qcubic.hessian", "third_derivative_sweep", None),
    ("numdiff.fd", "qcubic.numdiff", "fd_gradient", None),
    ("numdiff.fd", "qcubic.numdiff", "fd_jacobian", None),
    ("cones.cone_condition", "qcubic.cones", "cone_condition", _matrix_pairs),
    ("elliptic.validate_graph", "qcubic.elliptic", "validate_graph", _graph_pairs),
    ("elliptic.g_tilde", "qcubic.elliptic", "g_tilde", _gauge_pairs),
    ("elliptic.zero_level_curve", "qcubic.elliptic", "zero_level_curve", None),
    ("elliptic.ellipticity_probe", "qcubic.elliptic", "ellipticity_probe", None),
    ("elliptic.monotonicity_sweep", "qcubic.elliptic", "monotonicity_sweep", None),
    ("elliptic.viscosity_probe", "qcubic.elliptic", "viscosity_probe", None),
    ("elliptic.save_cache", "qcubic.elliptic", "save_cache", _saved),
    ("elliptic.load_cache", "qcubic.elliptic", "load_cache", _loaded),
]

EIGEN_SPANS = ("eigen.eigvalsh", "eigen.eigh")


class Tracer:
    """Records nested spans; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                rec["counts"] = counter(args, kwargs, result)
            return result
        return traced

    def layers(self) -> dict:
        """Per span name: calls, busy_s (outermost occurrences only), self_s,
        summed counts, and eig_rows (eigensolve rows under the span)."""
        children = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        by_id = {s["id"]: s for s in self.spans}

        def dur(s):
            return s["end"] - s["start"]

        def eig_rows(s):
            own = s["counts"].get("rows", 0) if s["name"] in EIGEN_SPANS else 0
            return own + sum(eig_rows(c) for c in children.get(s["id"], ()))

        def nested_in_same(s):
            p = s["parent"]
            while p is not None:
                if by_id[p]["name"] == s["name"]:
                    return True
                p = by_id[p]["parent"]
            return False

        out = {}
        for s in self.spans:
            agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0,
                                             "self_s": 0.0, "eig_rows": 0})
            agg["calls"] += 1
            agg["self_s"] += dur(s) - sum(dur(c) for c in children.get(s["id"], ()))
            for key, val in s["counts"].items():
                agg[key] = agg.get(key, 0) + val
            if not nested_in_same(s):
                agg["busy_s"] += dur(s)
                agg["eig_rows"] += eig_rows(s)
        return out


def install(tracer: Tracer):
    """Wrap every TRACED function wherever it is bound; returns an undo list."""
    # Load every module first: one imported later would copy a wrapper via
    # ``from .x import f`` and keep it after uninstall.
    importlib.import_module("qcubic.cli")
    undo = []
    for name, modname, attr, counter in TRACED:
        home = importlib.import_module(modname)
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, counter)
        holders = [home] + [m for key, m in list(sys.modules.items())
                            if m is not None and m is not home
                            and (key == "qcubic" or key.startswith("qcubic."))]
        for mod in holders:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)
