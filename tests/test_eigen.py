"""Reference Jacobi solver against LAPACK, both directions."""

import ast
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import qcubic.eigen as eigen_mod
from qcubic.cubic import q_matrix
from qcubic.eigen import (jacobi_eigh, eigvalsh_desc, eigh_desc,
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
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(vals - ref)) < 1e-12
        # eigenvector residual
        assert np.max(np.abs(m @ vecs - vecs * vals[None, :])) < 1e-10


def test_jacobi_descending_and_orthogonal():
    rng = np.random.default_rng(2)
    m = _random_sym(rng)
    vals, vecs = jacobi_eigh(m)
    assert np.all(np.diff(vals) <= 0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) < 1e-12


def test_jacobi_small_sizes():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        m = _random_sym(rng, n)
        vals, _ = jacobi_eigh(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(vals - ref)) < 1e-12


def test_jacobi_already_diagonal():
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, -1.0])
    assert np.allclose(np.abs(vecs), np.abs(np.eye(3)[:, [0, 2, 1]]))


def test_batched_descending():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((40, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    vals = eigvalsh_desc(mats)
    assert vals.shape == (40, 12)
    assert np.all(np.diff(vals, axis=1) <= 0)
    for k in (0, 17, 39):
        ref = np.sort(np.linalg.eigvalsh(mats[k]))[::-1]
        assert np.max(np.abs(vals[k] - ref)) < 1e-12


def test_eigh_desc_vectors_consistent():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((7, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    vals, vecs = eigh_desc(mats)
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
        ref = np.linalg.eigvalsh(m)[::-1]
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


# fan-out of a batched LAPACK call over the CPUs (eigen._fanned)
SPLIT_ROWS = [0, 1, 2, 127, 128, 129, 1024, 1025, 4099]


def _stack(n, layout):
    """n symmetric 12x12 matrices: C-order, with the stack axis strided (a
    swapaxes(0, 1) view), with the matrix axes swapped, or one 2-D matrix."""
    rng = np.random.default_rng(n)
    if layout == "single":
        return _random_sym(rng)
    mats = rng.standard_normal((n, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    if layout == "rows":
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(mats, 0, 1)), 0, 1)
    return np.swapaxes(mats, -1, -2) if layout == "matrix" else mats


@pytest.mark.parametrize("n, layout", [
    (n, layout) for layout in ("C", "rows", "matrix") for n in SPLIT_ROWS]
    + [(1, "single")])
def test_split_never_changes_a_result(n, layout, monkeypatch):
    mats = _stack(n, layout)
    monkeypatch.setattr(eigen_mod, "_CPUS", 3)
    fanned = (eigvalsh_desc(mats),) + eigh_desc(mats)
    monkeypatch.setattr(eigen_mod, "_CPUS", 1)
    serial = (eigvalsh_desc(mats),) + eigh_desc(mats)
    for got, want in zip(fanned, serial):
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, cpus, rows", [
    (1025, 3, [341, 342, 342]), (1024, 2, [512, 512]), (128, 3, [64, 64]),
    (127, 3, [127]), (4099, 1, [4099])])
def test_split_runs_one_leaf_call_per_chunk(n, cpus, rows, monkeypatch):
    # each chunk is one np.linalg.eigvalsh call, looked up at call time, and
    # the calling thread solves the first
    calls = []
    leaf = np.linalg.eigvalsh

    def spy(a):
        calls.append((threading.current_thread(), len(a)))
        return leaf(a)

    monkeypatch.setattr(eigen_mod, "_CPUS", cpus)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    eigvalsh_desc(_stack(n, "C"))
    assert sorted(r for _, r in calls) == sorted(rows)
    assert sum(t is threading.current_thread() for t, _ in calls) == 1


def test_split_under_thread_stress(monkeypatch):
    # more workers than cores and a short switch interval: still the serial
    # bits, and the pool's threads end on shutdown
    mats = _stack(4099, "C")
    threads = set(threading.enumerate())
    monkeypatch.setattr(eigen_mod, "_CPUS", 1)
    want = eigh_desc(mats)
    monkeypatch.setattr(eigen_mod, "_CPUS", 2 * os.cpu_count() + 1)
    monkeypatch.setattr(eigen_mod, "_pool", [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            got = eigh_desc(mats)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(interval)
        eigen_mod._pool[0].shutdown(wait=True)
    assert set(threading.enumerate()) <= threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_split_in_forked_child(monkeypatch):
    # a forked child has none of the pool's threads: it makes its own pool
    # (without one its first split would wait forever; the alarm ends it)
    monkeypatch.setattr(eigen_mod, "_CPUS", 2)
    mats = _stack(1024, "C")
    want = eigvalsh_desc(mats)
    pid = os.fork()
    if pid == 0:
        signal.alarm(30)
        os._exit(0 if np.array_equal(eigvalsh_desc(mats), want) else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_import_starts_no_thread():
    # the pool and concurrent.futures wait for the first split
    src = os.path.dirname(os.path.dirname(eigen_mod.__file__))
    code = ("import sys, threading, qcubic.cli; "
            "print('concurrent.futures' in sys.modules, "
            "threading.active_count())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "1"]


def _calls_by_scope(tree, name):
    """'outer.inner' names of the defs in which `name(...)` is called."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Name)
                  and child.func.id == name):
                found.append(".".join(scope))
            visit(child, inner)

    visit(tree, [])
    return found


def test_source_scan_one_eigensolver_module_one_prune_width():
    # numpy's (or any) linalg eigensolver is called only in eigen.py, the
    # pruned minimum's first-round width is assigned in one module, the
    # paper aperture is written out once, and a graph sample is built in
    # one place and cached as its sources only
    src = pathlib.Path(eigen_mod.__file__).parent
    texts = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    eig = re.compile(r"linalg\s*\.\s*eig|getattr\(\s*np\.linalg"
                     r"|linalg\s+import[^\n]*\beig")
    assert [name for name, t in texts.items() if eig.search(t)] == ["eigen.py"]
    width = re.compile(r"^\s*_PRUNE_CANDIDATES\s*=", re.M)
    assert [name for name, t in texts.items()
            if width.search(t)] == ["cones.py"]
    paper = re.compile(r"11\.0\s*\*\s*RATIO_BOUND")
    assert {name: len(paper.findall(t)) for name, t in texts.items()
            if paper.search(t)} == {"elliptic.py": 1}
    trees = {name: ast.parse(t) for name, t in texts.items()}
    assert {(name, scope) for name, tree in trees.items()
            for scope in _calls_by_scope(tree, "SigmaSample")} == {
        ("elliptic.py", "sigma_from_sources"),
        ("elliptic.py", "SigmaSample.prefix")}
    assert not [name for name, t in texts.items() if "BASIS_HASH" in t]
    save = next(node for node in ast.walk(trees["elliptic.py"])
                if isinstance(node, ast.FunctionDef)
                and node.name == "save_cache")
    body = ast.get_source_segment(texts["elliptic.py"], save)
    assert "sigma.sources" in body
    assert not re.search(r"sigma\.(z|s)\b|z\[77\]", body)


def test_source_scan_one_pairwise_gauge_test():
    # the graph invariant and the cone condition share one certified test,
    # the p/q dual test serves only the membership API, and the pinch
    # factor is formed in cones.py alone
    src = pathlib.Path(eigen_mod.__file__).parent
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(src.glob("*.py"))}

    def calls(name):
        return {(mod, scope) for mod, tree in trees.items()
                for scope in _calls_by_scope(tree, name)}

    assert calls("_in_dual") == {("cones.py", "in_K_star"),
                                 ("cones.py", "in_L_ratio_batch")}
    assert calls("in_L_ratio_batch") == {("cones.py", "in_L")}
    assert {mod for mod, _ in calls("_kappa")} == {"cones.py"}
    assert calls("breaking_pairs") == {("cones.py", "cone_condition"),
                                       ("elliptic.py", "validate_graph")}
