"""Reference Jacobi solver against LAPACK, both directions."""

import ast
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import qcubic.eigen as eigen_mod
from qcubic.cubic import q_matrix
from qcubic.eigen import (jacobi_eigh, eigvalsh_asc, eigh_asc,
                          JACOBI_MAX_SWEEPS)
from qcubic.sampling import rng_for, directions, STREAM_SPECTRAL


def _random_sym(rng, n=12):
    m = rng.standard_normal((n, n))
    return m + m.T


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = _random_sym(rng)
        vals, vecs = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(vals - ref)) < 1e-12
        # eigenvector residual
        assert np.max(np.abs(m @ vecs - vecs * vals[None, :])) < 1e-10


def test_jacobi_ascending_and_orthogonal():
    rng = np.random.default_rng(2)
    m = _random_sym(rng)
    vals, vecs = jacobi_eigh(m)
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) < 1e-12


def test_jacobi_small_sizes():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        m = _random_sym(rng, n)
        vals, _ = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(vals - ref)) < 1e-12


def test_jacobi_already_diagonal():
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.abs(np.eye(3)[:, [1, 2, 0]]))


def test_batched_ascending():
    # the batched LAPACK rows in Jacobi's order, row by row
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((40, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    vals = eigvalsh_asc(mats)
    assert vals.shape == (40, 12)
    assert np.all(np.diff(vals, axis=1) >= 0)
    for k in (0, 17, 39):
        ref, _ = jacobi_eigh(mats[k])
        assert np.max(np.abs(vals[k] - ref)) < 1e-12


def test_eigh_asc_vectors_consistent():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((7, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    vals, vecs = eigh_asc(mats)
    assert np.all(np.diff(vals, axis=1) >= 0)
    recon = np.einsum("nik,nk,njk->nij", vecs, vals, vecs)
    assert np.max(np.abs(recon - mats)) < 1e-11


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1e-11], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_jacobi_symmetry_guard_is_relative(scale):
    # exactly symmetric input passes and 1e-9 relative asymmetry fails, at
    # every scale
    m = q_matrix(directions(rng_for(18, STREAM_SPECTRAL), 1)[0]) * scale
    jacobi_eigh(m)
    bad = m.copy()
    bad[0, 5] += 1e-9 * np.abs(m).max()
    with pytest.raises(ValueError):
        jacobi_eigh(bad)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_jacobi_scale_aware(scale, monkeypatch):
    # the stop follows the input's scale: relative error at rounding level,
    # no overflow warning, and the stop is met before the sweep cap
    sweeps = []
    norm = eigen_mod._offdiag_norm
    monkeypatch.setattr(eigen_mod, "_offdiag_norm",
                        lambda a: sweeps.append(1) or norm(a))
    for d in directions(rng_for(16, STREAM_SPECTRAL), 4):
        m = q_matrix(d) * scale
        sweeps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-12 * scale
        assert len(sweeps) < JACOBI_MAX_SWEEPS


def test_jacobi_power_of_two_scaling_is_exact():
    # 2^k mat takes the same rotations as mat and stops at the same sweep
    m = q_matrix(directions(rng_for(17, STREAM_SPECTRAL), 1)[0])
    vals, vecs = jacobi_eigh(m)
    for k in (-40, 30):
        vk, wk = jacobi_eigh(np.ldexp(m, k))
        assert np.array_equal(vk, np.ldexp(vals, k))
        assert np.array_equal(wk, vecs)


def test_one_lapack_call_per_stack(monkeypatch):
    # a stack is one np.linalg call, looked up at call time, on the calling
    # thread, and no eigensolve starts a thread
    calls = []

    def spy(name):
        leaf = getattr(np.linalg, name)

        def solve(a):
            calls.append((name, threading.current_thread(), len(a)))
            return leaf(a)
        return solve

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    mats = np.random.default_rng(6).standard_normal((1025, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    threads = threading.active_count()
    eigvalsh_asc(mats)
    eigh_asc(mats)
    assert calls == [(name, threading.current_thread(), 1025)
                     for name in ("eigvalsh", "eigh")]
    assert threading.active_count() == threads


def test_import_starts_no_thread():
    # importing the CLI starts no thread and loads no concurrent.futures
    src = os.path.dirname(os.path.dirname(eigen_mod.__file__))
    code = ("import sys, threading, qcubic.cli; "
            "print('concurrent.futures' in sys.modules, "
            "threading.active_count())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "1"]


def _scopes_of(tree, match):
    """'outer.inner' names of the defs holding a node that match accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif match(child):
                found.append(".".join(scope))
            visit(child, inner)

    visit(tree, [])
    return found


def _calls_by_scope(tree, name):
    """'outer.inner' names of the defs in which `name(...)` is called."""
    return _scopes_of(tree, lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == name)


_TEXTS = {p.name: p.read_text() for p in
          sorted(pathlib.Path(eigen_mod.__file__).parent.glob("*.py"))}
_TREES = {name: ast.parse(t) for name, t in _TEXTS.items()}


def _scopes(match):
    """(module, scope) of each node under src/qcubic that match accepts."""
    return {(mod, scope) for mod, tree in _TREES.items()
            for scope in _scopes_of(tree, match)}


def _calls(name):
    """(module, scope) of each `name(...)` call under src/qcubic, sorted,
    once per call."""
    return sorted((mod, scope) for mod, tree in _TREES.items()
                  for scope in _calls_by_scope(tree, name))


def test_source_scan_one_eigensolver_module_one_prune_width():
    # numpy's (or any) linalg eigensolver is called only in eigen.py, whose
    # public solvers all return one order, ascending, so no descending
    # alias is defined or read anywhere; the pruned minimum's first-round
    # width is assigned in one module, the paper aperture is written out
    # once, and a graph sample is drawn in one place and cached as its
    # recipe only
    eig = re.compile(r"linalg\s*\.\s*eig|getattr\(\s*np\.linalg"
                     r"|linalg\s+import[^\n]*\beig")
    assert [mod for mod, t in _TEXTS.items() if eig.search(t)] == ["eigen.py"]
    assert sorted(node.name for node in _TREES["eigen.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")) == [
        "eigh_asc", "eigvalsh_asc", "jacobi_eigh"]
    assert not [(mod, name) for mod, tree in _TREES.items()
                for node in ast.walk(tree)
                for name in (getattr(node, field, None) for field in
                             ("id", "attr", "name", "asname", "arg"))
                if isinstance(name, str) and name.endswith("_desc")]
    width = re.compile(r"^\s*_PRUNE_CANDIDATES\s*=", re.M)
    assert [name for name, t in _TEXTS.items()
            if width.search(t)] == ["cones.py"]
    paper = re.compile(r"11\.0\s*\*\s*RATIO_BOUND")
    assert {name: len(paper.findall(t)) for name, t in _TEXTS.items()
            if paper.search(t)} == {"elliptic.py": 1}
    assert _calls("SigmaSample") == [("elliptic.py", "sigma_from_sources")]
    assert not [name for name, t in _TEXTS.items() if "BASIS_HASH" in t]
    save = next(node for node in ast.walk(_TREES["elliptic.py"])
                if isinstance(node, ast.FunctionDef)
                and node.name == "save_cache")
    body = ast.get_source_segment(_TEXTS["elliptic.py"], save)
    assert not re.search(r"sigma\.(sources|z|s)\b|z\[77\]", body)
    assert _scopes(lambda n: (
        isinstance(n, ast.Name) and n.id == "STREAM_SIGMA"
        and isinstance(n.ctx, ast.Load))) == {("elliptic.py", "build_sigma")}


def test_source_scan_one_run_sample_recipe():
    # the CLI decides a run's graph sample and its aperture in one helper:
    # only it builds a sample (load_cache redraws a cached one), the
    # aperture is formed there and for the paper-aperture cone check, and
    # the pinch reads its pair count from the config alone
    assert _calls("build_sigma") == [("cli.py", "_run_sample"),
                                     ("elliptic.py", "load_cache")]
    assert not [name for name, t in _TEXTS.items() if "_policy_cone" in t]
    assert _calls("operator_cone") == [("cli.py", "_run_sample"),
                                       ("cli.py", "operator_suite")]
    assert _scopes_of(_TREES["cli.py"], lambda node: (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "operator_cone"
        and [getattr(a, "value", None) for a in node.args] == ["paper"]
        and not node.keywords)) == ["operator_suite"]
    assert _calls_by_scope(_TREES["cli.py"], "operator_cone").count(
        "operator_suite") == 1
    pinch = next(node for node in ast.walk(_TREES["cli.py"])
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_pinch").args
    assert ([a.arg for a in pinch.posonlyargs + pinch.args
             + pinch.kwonlyargs] == ["cfg"]
            and pinch.vararg is None and pinch.kwarg is None)


def test_source_scan_one_pairwise_gauge_test():
    # the graph invariant and the cone condition share one certified test,
    # which is the one gauge reader in cones.py, the pinch factor is
    # formed in cones.py alone, and every pruned minimum takes one floor
    # with its rounding allowance folded in where the floor is formed: the
    # pinch floors, g_tilde's trace term and the monotonicity sweep's
    # floor s(E) - x(z(E)), which is no pinch bound
    def names(node):
        return {getattr(n, "id", getattr(n, "attr", None))
                for n in ast.walk(node)}

    def pinch_allowance(node):  # sqrt(12) _GUARD, however sqrt(12) is read
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and "_GUARD" in names(node)
                and bool({"_SQRT_N", "sqrt"} & names(node)))

    assert _scopes(lambda node: isinstance(node, ast.Name)
                   and node.id == "_GUARD"
                   and isinstance(node.ctx, ast.Load)) == {
        ("cones.py", "_PairBounds.pinch"), ("elliptic.py", "_extension_parts"),
        ("elliptic.py", "monotonicity_sweep")}
    assert _scopes(pinch_allowance) == {("cones.py", "_PairBounds.pinch"),
                                        ("elliptic.py", "monotonicity_sweep")}
    pruned = next(node for node in ast.walk(_TREES["cones.py"])
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_pruned_min").args
    assert ([a.arg for a in pruned.posonlyargs + pruned.args
             + pruned.kwonlyargs] == ["floor", "solve"]
            and pruned.vararg is None and pruned.kwarg is None)
    # one first round: the k lowest floors are picked in _first_round,
    # which the pruned minimum and the viscosity probe's brackets read
    assert _calls("_first_round") == [("cones.py", "_pruned_min"),
                                      ("elliptic.py", "viscosity_probe")]
    assert _scopes(lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "argpartition") == {
        ("cones.py", "_first_round")}
    # g_tilde is the operator's own: a probe finishes rows from the floor
    # table it already holds, not through a second table
    assert _calls("g_tilde") == [("elliptic.py", "SigmaSample.F")]

    assert {scope for mod, scope in _calls("_gauge")
            if mod == "cones.py"} == {"breaking_pairs"}
    assert {mod for mod, _ in _calls("_kappa")} == {"cones.py"}
    assert _calls("breaking_pairs") == [("cones.py", "cone_condition"),
                                        ("elliptic.py", "validate_graph")]


def test_source_scan_fixed_settings_are_constants():
    # settings that no run changes are constants, not options: RunConfig
    # holds counts, seeds and strings only, a suite declares no tolerance,
    # the zero-level curve and the viscosity probe take no count of their
    # own, no function repeats a RunConfig default, and the lambda policy
    # names are written once, in elliptic.py, for argparse's choices and
    # RunConfig.validate to read
    from qcubic import cli
    from qcubic.cubic import strata_directions
    from qcubic.elliptic import viscosity_probe, zero_level_curve

    assert {type(f.default) for f in dataclasses.fields(cli.RunConfig)} \
        == {int, str}
    assert "tolerance" not in {f.name for f in
                               dataclasses.fields(cli.RunConfig)}
    assert [f.name for f in dataclasses.fields(cli._Suite)] == [
        "output", "run", "count", "constants"]
    assert list(inspect.signature(zero_level_curve).parameters) == [
        "sigma", "heldout_count", "heldout_seed"]
    assert list(inspect.signature(viscosity_probe).parameters) == [
        "sigma", "trials", "seed"]
    curve = inspect.signature(zero_level_curve).parameters
    assert [curve[name].default for name in ("heldout_count", "heldout_seed")] \
        + [inspect.signature(strata_directions).parameters[
            "count_each"].default] == [inspect.Parameter.empty] * 3

    assert _scopes(lambda node: (
        isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and {"paper", "empirical"} <= {getattr(e, "value", None)
                                       for e in node.elts})) == {
        ("elliptic.py", "")}
    assert not [name for name, t in _TEXTS.items() if "paper|empirical" in t]

    def policies(node):
        return isinstance(node, ast.Name) and node.id == "LAMBDA_POLICIES"

    assert _scopes_of(_TREES["cli.py"], lambda node: (
        isinstance(node, ast.keyword) and node.arg == "choices"
        and policies(node.value))) == ["main"]
    assert "RunConfig.validate" in _scopes_of(_TREES["cli.py"], policies)


def test_source_scan_one_pair_difference_solver():
    # F is the graph sample's own and every probe takes the sample; one
    # function forms and eigensolves a pair's difference of coordinates,
    # and the pinch floors name both stacks they compare
    from qcubic import elliptic
    from qcubic.cones import _PairBounds

    assert not [name for name, t in _TEXTS.items() if "OperatorF" in t]
    assert not hasattr(_PairBounds, "solve")
    assert sorted((name, scope) for name, tree in _TREES.items()
                  for scope in _scopes_of(tree, lambda node: (
                      isinstance(node, ast.Call)
                      and getattr(node.func, "attr", getattr(
                          node.func, "id", None)) == "embed_traceless"
                      and any(isinstance(a, ast.BinOp)
                              and isinstance(a.op, ast.Sub)
                              for a in node.args)))) == [
        ("cones.py", "_pair_spectra")]
    for method in (_PairBounds.lower, _PairBounds.pinch):
        params = inspect.signature(method).parameters
        assert list(params)[-1] == "b"
        assert all(p.default is inspect.Parameter.empty
                   for p in params.values()), method.__name__
    for probe in (elliptic.ellipticity_probe, elliptic.monotonicity_sweep,
                  elliptic.viscosity_probe, elliptic.zero_level_curve):
        assert list(inspect.signature(probe).parameters)[0] == "sigma", probe


def test_source_scan_one_coordinate_product():
    # every coordinate product pads a short stack alike: the only matrix
    # product in symspace.py is inside _rowwise, and no other module reads
    # the basis arrays it multiplies by
    assert _scopes_of(_TREES["symspace.py"], lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
            node.func, "id", None)) in ("dot", "matmul", "einsum", "inner",
                                        "tensordot", "vdot"))) == [
        "_rowwise"]
    assert [name for name, t in _TEXTS.items()
            if re.search(r"\b_BASIS(_FLAT)?\b", t)] == ["symspace.py"]


def test_source_scan_one_sign_table():
    # Hamilton's convention is written once: quaternions.SIGNS is assigned
    # once, at module level, and read only by qmul and matrix_M, whose
    # products and entries it signs; q_matrix calls matrix_M by name, once
    # per block, which is what the sign-flip tests patch
    def sign_table(ctx):
        return lambda node: (isinstance(node, ast.Name) and node.id == "SIGNS"
                             and isinstance(node.ctx, ctx))

    assert _scopes(sign_table(ast.Store)) == {("quaternions.py", "")}
    assert _scopes(sign_table(ast.Load)) == {("quaternions.py", "qmul"),
                                             ("quaternions.py", "matrix_M")}
    assert [name for name, t in _TEXTS.items()
            if re.search(r"\bSIGNS\b", t)] == ["quaternions.py"]
    assert _calls("matrix_M") == [("cubic.py", "q_matrix")] * 3


def _unread_definitions(trees, entry_points):
    """'module.qualname' of every def and class that no running code reads.

    Module-level statements and the entry points run; a def or class runs
    once running code reads it: a method as an attribute, any other def by
    its name (unless a local of the reading function shadows it) or as an
    attribute.  Dunder methods are read by the language.
    """
    defs, reads = {}, []

    def visit(node, scope, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = scope + "." + child.name
                defs[qual] = (child.name, isinstance(node, ast.ClassDef))
                visit(child, qual, local | {
                    getattr(n, "arg", getattr(n, "id", None))
                    for n in ast.walk(child) if isinstance(n, ast.arg)
                    or isinstance(getattr(n, "ctx", None), ast.Store)}
                    if isinstance(child, ast.FunctionDef) else local)
                continue
            if (isinstance(child, ast.Name) and child.id not in local
                    and isinstance(child.ctx, ast.Load)):
                reads.append((child.id, False, scope))
            elif isinstance(child, ast.Attribute):
                reads.append((child.attr, True, scope))
            visit(child, scope, local)

    for mod, tree in trees.items():
        visit(tree, mod[:-3], set())
    live = set(entry_points) | {mod[:-3] for mod in trees}
    while True:
        read = {(name, attr) for name, attr, scope in reads if scope in live}
        more = {qual for qual, (name, method) in defs.items()
                if {(name, True), (name, method)} & read
                or method and name[:2] == name[-2:] == "__"} - live
        if not more:
            return sorted(set(defs) - live)
        live |= more


def test_source_scan_every_definition_runs():
    # src/ holds only what a run executes: every function, class and method
    # under src/qcubic is read by code that runs from the module-level
    # statements or the console script cli.main; the test oracles live in
    # tests/oracles.py
    assert _unread_definitions(_TREES, {"cli.main"}) == []
    # code that only dead code reads is dead, and a local of the same name
    # is no read
    dead = ast.parse("def leaf(): pass\ndef caller(): return leaf()\n"
                     "class Box:\n    def __init__(self): pass\n"
                     "    def unused(self): return Box()\n"
                     "def run(leaf): return leaf\n")
    assert _unread_definitions({"m.py": dead}, {"m.run"}) == [
        "m.Box", "m.Box.unused", "m.caller", "m.leaf"]
