#!/usr/bin/env python3
"""qcubic benchmark: four workloads driven through the ``qcubic`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload graph-build --seed 1 --seconds 20 --trace 0

``--trace 0`` times fresh CLI processes (closed loop, one client) and
reports the end-to-end metrics.  ``--trace 1`` calls the same CLI entry
point in-process, alternating untraced and traced passes, and reports the
per-layer metrics from spans recorded around qcubic's public functions
(see tracer.py).  Either way every output is checked, and the last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See README.md in this directory for the workloads and how to read them.
"""

import os

# Pinned before numpy is imported here or in any child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SUITE_JSON = {"verify-spectral": "spectral.json",
              "verify-hessian": "hessian.json",
              "build-operator": "operator.json",
              "viscosity-test": "viscosity.json"}

# Counts are sized so that one pass of a workload takes 5-10 s on a 2-core
# box (long enough to average out a noisy host) while keeping the layer mix
# each workload exists for (README.md).  The seed is passed as --seed and
# also picks the held-out set.
WORKLOADS = {
    "spectral-hessian": {
        "calls": ("verify-spectral", "verify-hessian"),
        "config": {"spectral_count": 5000, "strata_count": 20,
                   "perp_count": 40000, "cor4_pairs": 100, "fd_count": 150,
                   "witness_pairs": 40000, "ratio_pairs": 40000,
                   "third_count": 5000},
    },
    "graph-build": {
        "calls": ("build-operator",),
        "config": {"sigma_count": 800, "ratio_pairs": 20000,
                   "heldout_count": 20, "elliptic_trials": 8,
                   "monotonicity_trials": 20, "viscosity_trials": 10},
    },
    "operator-probe": {
        "calls": ("build-operator",),
        "config": {"sigma_count": 500, "ratio_pairs": 20000,
                   "heldout_count": 20, "elliptic_trials": 40,
                   "monotonicity_trials": 200, "viscosity_trials": 100},
    },
    "viscosity-cached": {
        "calls": ("viscosity-test",),
        "config": {"sigma_count": 500, "ratio_pairs": 20000,
                   "viscosity_trials": 250},
        "cache": True,
    },
}

# Set-up rounds per trace-0 run; setup_s is their median.  A round that only
# starts an interpreter lasts ~0.2 s, so it is repeated more to be as steady.
SETUP_ROUNDS = {"cache": 3, "startup": 9}
MIN_PASSES = 2  # timed passes per run, even past --seconds


def config_text(workload: str, seed: int) -> str:
    lines = ["# perfbench %s: counts for the qcubic CLI" % workload,
             "heldout_seed = %d" % seed]
    lines += ["%s = %r" % kv for kv in sorted(WORKLOADS[workload]["config"].items())]
    return "\n".join(lines) + "\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Ledger:
    """Attempted and failed operations: CLI calls, suite checks, and
    determinism comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED: %s" % what, file=sys.stderr)
        return ok

    def suite_json(self, path: str, label: str) -> None:
        """One operation per check in the suite's JSON, one for its flag."""
        if not self.op(os.path.isfile(path), "%s wrote no %s" % (label, path)):
            return
        try:
            with open(path, "rb") as fh:
                rep = json.load(fh)
        except ValueError:
            self.op(False, "%s: unparseable JSON" % label)
            return
        for check in rep.get("checks", []):
            self.op(check.get("passed") is True,
                    "%s check %s" % (label, check.get("name")))
        self.op(rep.get("passed") is True, "%s passed flag" % label)

    def same(self, outputs: dict, reference: dict, label: str) -> None:
        for name in sorted(set(outputs) | set(reference)):
            self.op(outputs.get(name) == reference.get(name),
                    "%s: %s differs between runs on one seed" % (label, name))


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def collect_outputs(out: str, calls) -> dict:
    """Bytes of every deterministic output a pass leaves in ``out``."""
    names = [SUITE_JSON[c] for c in calls] + ["sigma.cache"]
    return {name: read_bytes(os.path.join(out, name)) for name in names
            if os.path.isfile(os.path.join(out, name))}


# ---------------------------------------------------------------------------
# set-up


def startup_probe() -> None:
    """One fresh interpreter importing the CLI: the start-up cost every
    timed call also pays."""
    subprocess.run([sys.executable, "-c", "import qcubic.cli"], cwd=ROOT,
                   env=child_env(), check=True)


def build_cache(workload: str, seed: int, path: str) -> None:
    """sigma.cache through the public path viscosity-test would use."""
    from qcubic.elliptic import build_sigma, operator_cone
    from qcubic.hessian import ratio_bound_estimate
    from qcubic.sampling import STREAM_HESSIAN, rng_for

    cfg = WORKLOADS[workload]["config"]
    m_hat, _, _ = ratio_bound_estimate(rng_for(seed, STREAM_HESSIAN),
                                       cfg["ratio_pairs"])
    build_sigma(cfg["sigma_count"], seed, operator_cone("empirical", m_hat),
                cache_path=path)


def setup(workload: str, seed: int, work: str, rounds: int, ledger: Ledger):
    """Returns (per-round seconds, cache path or None)."""
    times, caches = [], []
    for k in range(rounds):
        t0 = time.perf_counter()
        startup_probe()
        if WORKLOADS[workload].get("cache"):
            path = os.path.join(work, "setup%d.cache" % k)
            build_cache(workload, seed, path)
            caches.append(path)
        times.append(time.perf_counter() - t0)
    if not caches:
        return times, None
    first = read_bytes(caches[0])
    for k, path in enumerate(caches[1:], 1):
        ledger.op(read_bytes(path) == first,
                  "setup cache %d differs from cache 0" % k)
    return times, caches[0]


def check_pass(out, calls, codes, cache, before, reference, label, ledger):
    """Operations for one finished pass; returns its output bytes."""
    for cmd, rc in zip(calls, codes):
        ledger.op(rc == 0, "%s: %s exited %d" % (label, cmd, rc))
        ledger.suite_json(os.path.join(out, SUITE_JSON[cmd]), cmd)
    if cache:
        cache_untouched(out, cache, before, ledger)
    outputs = collect_outputs(out, calls)
    if reference is not None:
        ledger.same(outputs, reference, label)
    return outputs


def _stamp(path: str):
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


def fresh_out(work: str, cache):
    """Empty output directory for one pass, holding a copy of the prepared
    cache if there is one.  Returns (directory, cache file stamp or None)."""
    out = os.path.join(work, "pass")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if not cache:
        return out, None
    path = os.path.join(out, "sigma.cache")
    shutil.copyfile(cache, path)
    return out, _stamp(path)


def cache_untouched(out: str, cache, before, ledger: Ledger) -> None:
    """viscosity-test must read the prepared cache, never rebuild it."""
    path = os.path.join(out, "sigma.cache")
    same = (os.path.exists(path) and _stamp(path) == before
            and read_bytes(path) == read_bytes(cache))
    ledger.op(same, "sigma.cache was rewritten by viscosity-test")


# ---------------------------------------------------------------------------
# timed runs (tracing off)


def run_call(cmd: str, cfg_path: str, seed: int, out: str, log: str):
    """One CLI process; returns (wall seconds, exit code, max RSS in MB)."""
    argv = [sys.executable, "-m", "qcubic.cli", cmd, "--config", cfg_path,
            "--seed", str(seed), "--out", out]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    # reaped by wait4, so tell Popen the child is gone
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def timed_runs(workload, seed, seconds, work, cfg_path, cache, ledger):
    calls = WORKLOADS[workload]["calls"]
    per_call = {c: [] for c in calls}
    totals, peak_rss, reference = [], 0.0, None
    log = os.path.join(work, "cli.log")
    t_start = time.perf_counter()
    # start another pass when it would end nearer to --seconds than not
    while len(totals) < MIN_PASSES or (time.perf_counter() - t_start
                                       + statistics.median(totals) / 2 <= seconds):
        out, before = fresh_out(work, cache)
        codes = []
        for cmd in calls:
            wall, rc, rss = run_call(cmd, cfg_path, seed, out, log)
            if rc != 0:
                with open(log, errors="replace") as fh:
                    sys.stderr.write(fh.read()[-2000:])
            codes.append(rc)
            per_call[cmd].append(wall)
            peak_rss = max(peak_rss, rss)
        totals.append(sum(per_call[cmd][-1] for cmd in calls))
        outputs = check_pass(out, calls, codes, cache, before, reference,
                             workload, ledger)
        if reference is None:
            reference = outputs
    shutil.rmtree(os.path.join(work, "pass"), ignore_errors=True)
    return totals, per_call, peak_rss, reference


def end_to_end_metrics(totals, per_call, setup_times, peak_rss) -> dict:
    """Medians over the timed passes.  first_call_s/last_call_s split the
    workload by CLI call (verify-spectral/verify-hessian on
    spectral-hessian; the one call elsewhere)."""
    calls = list(per_call)
    return {
        "wall_s": {"value": statistics.median(totals), "unit": "s"},
        "first_call_s": {"value": statistics.median(per_call[calls[0]]), "unit": "s"},
        "last_call_s": {"value": statistics.median(per_call[calls[-1]]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# traced runs (in-process)


def in_process_pass(workload, seed, cfg_path, out, tracer=None):
    """Runs the workload's CLI calls through qcubic.cli.main in this process.
    Returns (wall seconds, exit codes)."""
    from qcubic import cli

    codes = []
    t0 = time.perf_counter()
    with open(os.path.join(out, "cli.log"), "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for cmd in WORKLOADS[workload]["calls"]:
            argv = [cmd, "--config", cfg_path, "--seed", str(seed), "--out", out]
            if tracer is None:
                codes.append(cli.main(argv))
                continue
            with tracer.span("cli." + cmd) as rec:
                codes.append(cli.main(argv))
            path = os.path.join(out, SUITE_JSON[cmd])
            rec["counts"] = {"output_bytes": os.path.getsize(path)
                             if os.path.exists(path) else 0}
    return time.perf_counter() - t0, codes


def exact_counts(layers: dict) -> dict:
    return {name: {k: v for k, v in agg.items() if k not in ("busy_s", "self_s")}
            for name, agg in layers.items()}


def traced_runs(workload, seed, seconds, work, cfg_path, cache, ledger):
    import tracer as tr

    calls = WORKLOADS[workload]["calls"]
    plain_walls, traced_walls, traced_layers, spans = [], [], [], None
    reference = None
    t_start = time.perf_counter()
    # The first pass in a process runs cold (imports, allocator growth), so
    # it is traced only to compare counts and its times are dropped.  Then
    # untraced/traced pairs, at least one, while time is left.
    kinds = [True, False, True]
    while kinds:
        traced = kinds.pop(0)
        out, before = fresh_out(work, cache)
        tracer = tr.Tracer() if traced else None
        undo = tr.install(tracer) if traced else []
        try:
            wall, codes = in_process_pass(workload, seed, cfg_path, out, tracer)
        except Exception:
            traceback.print_exc()
            ledger.op(False, "in-process %s pass raised" % workload)
            return None
        finally:
            tr.uninstall(undo)
        outputs = check_pass(out, calls, codes, cache, before, reference,
                             workload + (" traced" if traced else " untraced"),
                             ledger)
        if reference is None:
            reference = outputs
        if traced:
            traced_walls.append(wall)
            traced_layers.append(tracer.layers())
            spans = tracer.spans
        else:
            plain_walls.append(wall)
        if not kinds and (time.perf_counter() - t_start + plain_walls[-1]
                          + traced_walls[-1] <= seconds):
            kinds = [False, True]
    shutil.rmtree(os.path.join(work, "pass"), ignore_errors=True)
    for k, layers in enumerate(traced_layers[1:], 1):
        ledger.op(exact_counts(layers) == exact_counts(traced_layers[0]),
                  "traced pass %d counts differ from pass 0" % k)
    with open(os.path.join(work, "spans.json"), "w") as fh:
        json.dump(spans, fh)
    overhead = (statistics.median(traced_walls[1:])
                - statistics.median(plain_walls))
    return layer_metrics(traced_layers[1:], overhead), reference


def layer_metrics(passes, overhead_s) -> dict:
    """Per-layer metrics: counts from the first of the given traced passes,
    times as the median over them.  A layer the workload never calls reads 0."""

    def get(span, key):
        vals = [p.get(span, {}).get(key, 0) for p in passes]
        return vals[0] if key not in ("busy_s", "self_s") else statistics.median(vals)

    def per(span, num, den, scale=1e6):
        d = get(span, den)
        return get(span, num) / d * scale if d else 0.0

    m = {}

    def add(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span in ("eigen.eigvalsh", "eigen.eigh"):
        add(span + ".rows", get(span, "rows"), "count")
        add(span + ".busy_s", get(span, "busy_s"), "s")
    add("eigen.eigvalsh.us_per_row", per("eigen.eigvalsh", "busy_s", "rows"), "us")
    add("eigen.jacobi.calls", get("eigen.jacobi", "calls"), "count")
    add("eigen.jacobi.busy_s", get("eigen.jacobi", "busy_s"), "s")
    for span in ("symspace.embed_traceless", "symspace.to_coords"):
        add(span + ".rows", get(span, "rows"), "count")
        add(span + ".busy_s", get(span, "busy_s"), "s")
    add("symspace.embed_traceless.us_per_row",
        per("symspace.embed_traceless", "busy_s", "rows"), "us")
    for span in ("cubic.spectrum_sweep", "cubic.perp_sweep", "cubic.invariants_mn"):
        add(span + ".busy_s", get(span, "busy_s"), "s")
    add("cubic.perp_sweep.self_s", get("cubic.perp_sweep", "self_s"), "s")
    add("hessian.hess_w.calls", get("hessian.hess_w", "calls"), "count")
    add("hessian.hess_w.points", get("hessian.hess_w", "points"), "count")
    for span in ("hessian.hess_w", "hessian.witness_sweep",
                 "hessian.pair_ratio_sweep", "hessian.ratio_bound_estimate",
                 "hessian.third_derivative_sweep"):
        add(span + ".busy_s", get(span, "busy_s"), "s")
    add("numdiff.fd.calls", get("numdiff.fd", "calls"), "count")
    add("numdiff.fd.busy_s", get("numdiff.fd", "busy_s"), "s")
    for span in ("cones.cone_condition", "elliptic.validate_graph", "elliptic.g_tilde"):
        add(span + ".pairs", get(span, "pairs"), "count")
        add(span + ".busy_s", get(span, "busy_s"), "s")
        add(span + ".eig_rows_per_pair", per(span, "eig_rows", "pairs", 1.0), "rows/pair")
    add("elliptic.validate_graph.us_per_pair",
        per("elliptic.validate_graph", "busy_s", "pairs"), "us")
    add("elliptic.g_tilde.self_s", get("elliptic.g_tilde", "self_s"), "s")
    add("elliptic.g_tilde.self_us_per_pair",
        per("elliptic.g_tilde", "self_s", "pairs"), "us")
    for span in ("elliptic.zero_level_curve", "elliptic.viscosity_probe"):
        add(span + ".busy_s", get(span, "busy_s"), "s")
        add(span + ".self_s", get(span, "self_s"), "s")
    for span in ("elliptic.monotonicity_sweep", "elliptic.ellipticity_probe"):
        add(span + ".busy_s", get(span, "busy_s"), "s")
    for span in ("elliptic.save_cache", "elliptic.load_cache"):
        add(span + ".rows", get(span, "rows"), "count")
        add(span + ".bytes", get(span, "bytes"), "bytes")
        add(span + ".busy_s", get(span, "busy_s"), "s")
    add("elliptic.load_cache.us_per_row",
        per("elliptic.load_cache", "busy_s", "rows"), "us")
    for cmd in SUITE_JSON:
        add("cli.%s.self_s" % cmd, get("cli." + cmd, "self_s"), "s")
    add("cli.output.bytes",
        sum(get("cli." + cmd, "output_bytes") for cmd in SUITE_JSON), "bytes")
    add("trace.overhead_s", overhead_s, "s")
    return m


# ---------------------------------------------------------------------------
# environment and cross-run determinism


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_OPTIONAL_LOCKS="0")
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if rev.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT, env=env,
                               capture_output=True, text=True)
    except OSError:
        return None, None
    return rev.stdout.strip(), bool(dirty.stdout.strip())


def environment(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def build(lib):
        info = deps.get(lib, {})
        return "%s %s (%s)" % (info.get("name"), info.get("version"),
                               info.get("openblas configuration", "").strip())

    rev, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": build("blas"),
        "lapack": build("lapack"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": rev,
        "git_dirty": dirty,
        "config_sha256": {w: sha256(config_text(w, seed).encode())
                          for w in WORKLOADS},
    }


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qcubic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_against_earlier_runs(workload, seed, outputs, ledger) -> None:
    """Outputs must match every earlier run of the same code, workload and
    seed in this checkout, traced or not."""
    key = "%s-%d-%s-%s" % (workload, seed, source_digest()[:16],
                           sha256(config_text(workload, seed).encode())[:16])
    path = os.path.join(WORK, "digests", key + ".json")
    digests = {name: sha256(data) for name, data in outputs.items()}
    if os.path.exists(path):
        with open(path) as fh:
            ledger.same(digests, json.load(fh), workload + " (earlier run)")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(digests, fh)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qcubic", "cli.py")):
        print("perfbench: no qcubic sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, "%s-s%d-%s" % (args.workload, args.seed,
                                             "trace" if args.trace else "time"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, "qcubic.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(config_text(args.workload, args.seed))

    env = environment(args.seed)
    with open(os.path.join(work, "env.json"), "w") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))

    ledger = Ledger()
    rounds = SETUP_ROUNDS["cache" if WORKLOADS[args.workload].get("cache")
                          else "startup"]
    try:
        setup_times, cache = setup(args.workload, args.seed, work,
                                   1 if args.trace else rounds, ledger)
    except Exception:
        traceback.print_exc()
        ledger.op(False, "set-up of %s on seed %d" % (args.workload, args.seed))
        print(json.dumps({"correct": False, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": {}}))
        return 1

    if args.trace:
        result = traced_runs(args.workload, args.seed, args.seconds, work,
                             cfg_path, cache, ledger)
        metrics, outputs = result if result else ({}, {})
    else:
        totals, per_call, peak_rss, outputs = timed_runs(
            args.workload, args.seed, args.seconds, work, cfg_path, cache, ledger)
        print("timed passes (closed loop, one client): %s s"
              % " ".join("%.3f" % t for t in totals))
        for cmd, walls in per_call.items():
            print("metric %s_s = %r s" % (cmd.replace("-", "_"),
                                          statistics.median(walls)))
        metrics = end_to_end_metrics(totals, per_call, setup_times, peak_rss)
    if outputs:
        check_against_earlier_runs(args.workload, args.seed, outputs, ledger)
    for name, data in sorted(outputs.items()):
        print("output %s sha256=%s" % (name, sha256(data)))
    for name, m in metrics.items():
        print("metric %s = %r %s" % (name, m["value"], m["unit"]))
    print("metric failed_ratio = %r (%d of %d operations)"
          % (ledger.failed / max(1, ledger.attempted), ledger.failed,
             ledger.attempted))
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
