"""Command-line verification driver.

Subcommands run the numerical suites and write machine-readable reports:

    verify-spectral   closed-form direction spectra, bands, compression ratios
    verify-hessian    finite differences, witnesses, pair-ratio pinch, thirds
    build-operator    sigma sample, cone condition, operator probes, cache
    viscosity-test    one-sided quadratic comparison against the operator
    report            merge suite outputs into report.json + CSV tables

Determinism contract: identical config + seed produce byte-identical JSON
and CSV outputs.  Wall-clock timings therefore go to the console only and
never into files.  Exit code 0 means every check in the invocation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .cones import cone_condition
from .cubic import (spectrum_sweep, strata_directions, q_matrix, perp_sweep,
                    cubic_roots_check, cor4_check, invariants_mn, band_slack,
                    charpoly_identity, SLACK_TOL)
from .eigen import jacobi_eigh
from .elliptic import (build_sigma, zero_level_curve, ellipticity_probe,
                       monotonicity_sweep, viscosity_probe, operator_cone,
                       load_cache, CacheError, GraphError, LAMBDA_POLICIES,
                       MINORANT_MARGIN, PAPER_CHAIN_BOUND)
from .hessian import (hess_w, grad_w, eval_w, witness_worst,
                      third_derivative_sweep, ratio_bound_estimate,
                      pair_ratio_sweep, RATIO_BOUND, THIRD_DERIVATIVE_BOUND)
from .numdiff import fd_gradient, fd_jacobian
from .sampling import (rng_for, unit_sphere, directions,
                       PAIR_CHUNK, STREAM_SPECTRAL, STREAM_PERP,
                       STREAM_HESSIAN, STREAM_WITNESS, STREAM_THIRD,
                       STREAM_FDCHECK)

SCHEMA_VERSION = 1
SPECTRUM_TOL = 1e-8  # closed-form spectrum mismatch bound (verify-spectral)
FD_TOL = 1e-6        # finite-difference relative error bound (verify-hessian)


def _at_least(default: int, least: int):
    """A RunConfig count or seed; validate() enforces the minimum."""
    return field(default=default, metadata={"min": least})


@dataclass
class RunConfig:
    seed: int = _at_least(42, 0)
    lambda_policy: str = "empirical"
    out: str = "qcubic-out"
    # per-suite sample counts
    spectral_count: int = _at_least(10_000, 10)      # random directions
    strata_count: int = _at_least(50, 2)             # per stratum class
    perp_count: int = _at_least(100_000, 100)        # compression-ratio samples
    cor4_pairs: int = _at_least(200, 2)              # growth-bound pairs
    fd_count: int = _at_least(1_000, 10)             # finite-difference points
    witness_pairs: int = _at_least(100_000, 10)      # witness pairs
    ratio_pairs: int = _at_least(100_000, 100)       # pinch-estimate pairs
    third_count: int = _at_least(10_000, 10)         # third-derivative samples
    sigma_count: int = _at_least(500, 2)             # graph sample size
    heldout_count: int = _at_least(200, 10)          # held-out graph points
    heldout_seed: int = _at_least(7, 0)
    elliptic_trials: int = _at_least(400, 4)         # slope probes
    monotonicity_trials: int = _at_least(2_000, 10)  # psd-increment trials
    viscosity_trials: int = _at_least(1_000, 2)      # one-sided quadratics

    def validate(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if type(val) is not type(f.default):
                raise ValueError("config: %s must be of type %s, got %r" % (
                    f.name, type(f.default).__name__, val))
            if "min" in f.metadata and val < f.metadata["min"]:
                raise ValueError("config: %s must be >= %d" % (
                    f.name, f.metadata["min"]))
        if self.lambda_policy not in LAMBDA_POLICIES:
            raise ValueError("config: lambda_policy must be "
                             + "|".join(LAMBDA_POLICIES))


# a line up to its first '#' outside quotes (an unclosed quote runs to the end)
_UNCOMMENTED = re.compile(r"""(?:[^#"']|"[^"]*"?|'[^']*'?)*""")


def parse_config_file(path: str) -> dict:
    """key = value lines; '#' outside quotes starts a comment; ints
    coerced."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _UNCOMMENTED.match(raw).group().strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            try:
                out[key] = int(val)
            except ValueError:
                out[key] = val.strip("\"'")
    return out


def load_config(args) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    vals = parse_config_file(args.config) if args.config else {}
    bad = set(vals) - known
    if bad:
        raise ValueError("config: unknown keys %s" % sorted(bad))
    # flags override the file; --count sets the fields _SUITES names
    vals.update((k, v) for k, v in vars(args).items()
                if k in known and v is not None)
    if getattr(args, "count", None) is not None:
        vals.update(dict.fromkeys(_SUITES[args.command].count, args.count))
    cfg = RunConfig(**vals)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    # every non-JSON value a suite reports is an ndarray or numpy scalar
    _write(path, json.dumps(obj, sort_keys=True, indent=2,
                            default=lambda a: a.tolist()) + "\n")


def _check(name: str, passed: bool, worst, witness=None) -> dict:
    entry = {"name": name, "passed": bool(passed), "worst": worst}
    if not passed and witness is not None:
        entry["witness"] = witness
    return entry


def _suite_report(name: str, cfg: RunConfig, checks: list, constants: dict,
                  extra: dict | None = None) -> dict:
    rep = {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "seed": cfg.seed,
        "lambda_policy": cfg.lambda_policy,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "constants": constants,
    }
    if extra:
        rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# suites


def spectral_suite(cfg: RunConfig) -> dict:
    checks = []

    dirs = directions(rng_for(cfg.seed, STREAM_SPECTRAL), cfg.spectral_count)
    strata = strata_directions(rng_for(cfg.seed, STREAM_SPECTRAL + 100),
                               cfg.strata_count)
    both = np.concatenate([dirs, strata])
    vals, closed = spectrum_sweep(both)
    err = np.max(np.abs(vals - closed), axis=1)
    k = int(np.argmax(err))  # strata rows are witnessed as -1, -2, ...
    worst = float(err[k])
    n = len(dirs)
    checks.append(_check("closed_form_spectrum", worst <= SPECTRUM_TOL, worst,
                         witness={"index": k if k < n else n - 1 - k,
                                  "direction": both[k]}))

    slack = band_slack(vals)
    k = int(np.argmin(slack))
    checks.append(_check("eigenvalue_bands", bool(np.all(slack >= 0)),
                         float(slack.min()), witness={"index": k}))

    # per-direction reference path (reference solver, its ascending rows
    # read from the end, + band report)
    worst_report = float(np.min(band_slack(np.stack(
        [jacobi_eigh(q_matrix(d * (np.sqrt(3.0) / np.linalg.norm(d))))[0][::-1]
         for d in dirs[:8]]))))
    checks.append(_check("band_report_path", worst_report >= 0.0,
                         worst_report))

    pd = perp_sweep(directions(rng_for(cfg.seed, STREAM_PERP), cfg.perp_count))
    ratios = np.maximum(pd[:, 2] / pd[:, 0], pd[:, 3] / pd[:, 1])
    delta_hat = float(np.max(ratios))
    checks.append(_check("compression_ratio", delta_hat < 1.5, delta_hat,
                         witness={"index": int(np.argmax(ratios))}))

    grid = np.linspace(-1.0, 1.0, 41)
    r = cubic_roots_check(grid)
    lemma_err = float(np.max(np.abs(r**3 - 3 * r - 2 * grid[:, None])))
    checks.append(_check("depressed_cubic_roots", lemma_err <= 1e-12, lemma_err))

    rng4 = rng_for(cfg.seed, STREAM_SPECTRAL + 200)
    pts = unit_sphere(rng4, 2 * cfg.cor4_pairs) * np.sqrt(3.0)
    u, v = pts[0::2], pts[1::2]
    kept = np.nonzero(np.linalg.norm(u - v, axis=1) >= 1e-6)[0]
    lo = np.minimum(*cor4_check(u[kept], v[kept]))
    k = int(np.argmin(lo))  # the first minimal pair
    checks.append(_check("growth_bound", lo[k] >= -SLACK_TOL, float(lo[k]),
                         witness={"pair_index": int(kept[k])}))

    agreed = charpoly_identity()
    checks.append(_check("charpoly_identity", bool(np.all(agreed)),
                         {"points": int(agreed.size),
                          "failed": int(np.sum(~agreed))}))

    t_s, m_s, _, n_s, _ = invariants_mn(dirs[:16])
    sample = np.column_stack([m_s / t_s**3, n_s / t_s**3, closed[:min(16, n)]])
    return _suite_report(
        "spectral", cfg, checks,
        {"delta_hat": delta_hat, "spectrum_tolerance": SPECTRUM_TOL,
         "max_spectrum_mismatch": worst},
        extra={"eigen_sample": sample,
               "counts": {"directions": cfg.spectral_count,
                          "strata": int(strata.shape[0]),
                          "perp": cfg.perp_count}})


def hessian_suite(cfg: RunConfig) -> dict:
    checks = []

    rng = rng_for(cfg.seed, STREAM_FDCHECK)
    pts = unit_sphere(rng, cfg.fd_count) * rng.uniform(0.5, 2.0, (cfg.fd_count, 1))
    g = grad_w(pts)
    gf = fd_gradient(eval_w, pts)
    worst_g = float(np.max(np.max(np.abs(g - gf), axis=1)
                           / np.maximum(1.0, np.max(np.abs(g), axis=1))))
    hm = hess_w(pts)
    hf = fd_jacobian(grad_w, pts)
    worst_h = float(np.max(
        np.max(np.abs(hm - 0.5 * (hf + np.swapaxes(hf, 1, 2))), axis=(1, 2))
        / np.maximum(1.0, np.max(np.abs(hm), axis=(1, 2)))))
    checks.append(_check("fd_gradient", worst_g < FD_TOL, worst_g))
    checks.append(_check("fd_hessian", worst_h < FD_TOL, worst_h))

    worst_w = witness_worst(rng_for(cfg.seed, STREAM_WITNESS),
                            cfg.witness_pairs)
    checks.append(_check("witness_slopes", worst_w >= -1e-9, float(worst_w)))

    m_hat, r_min, r_max = _pinch(cfg)
    checks.append(_check(
        "pair_ratio_pinch",
        r_max <= RATIO_BOUND and r_min >= 1.0 / RATIO_BOUND,
        {"r_min": r_min, "r_max": r_max}))

    thirds = third_derivative_sweep(rng_for(cfg.seed, STREAM_THIRD),
                                    cfg.third_count)
    t_max = float(np.max(thirds))
    checks.append(_check("third_derivative",
                         t_max <= THIRD_DERIVATIVE_BOUND + 1e-3, t_max))

    edges = np.linspace(0.0, 3.5, 71)
    sample_pairs = min(cfg.ratio_pairs, PAIR_CHUNK)
    aa = unit_sphere(rng_for(cfg.seed, STREAM_HESSIAN + 301), sample_pairs)
    bb = unit_sphere(rng_for(cfg.seed, STREAM_HESSIAN + 302), sample_pairs)
    keep = np.linalg.norm(aa - bb, axis=1) >= 1e-9
    hist, _ = np.histogram(pair_ratio_sweep(aa[keep], bb[keep]), bins=edges)
    return _suite_report(
        "hessian", cfg, checks,
        {"M_hat": m_hat, "ratio_min": r_min, "ratio_max": r_max,
         "third_max": t_max, "ratio_bound": float(RATIO_BOUND),
         "fd_tolerance": FD_TOL},
        extra={"ratio_hist": {"edges": edges, "counts": hist},
               "counts": {"fd": cfg.fd_count, "witness": cfg.witness_pairs,
                          "ratio": cfg.ratio_pairs, "third": cfg.third_count}})


def _pinch(cfg: RunConfig):
    """(M_hat, r_min, r_max): ratio_bound_estimate's extremes over
    cfg.ratio_pairs random pairs merged with those of 500 antipodal pairs,
    M_hat = max(r_max, 1/r_min); verify-hessian and build-operator both
    read it."""
    _, r_min, r_max = ratio_bound_estimate(
        rng_for(cfg.seed, STREAM_HESSIAN), cfg.ratio_pairs)
    anti = unit_sphere(rng_for(cfg.seed, STREAM_HESSIAN + 300), 500)
    ratios = pair_ratio_sweep(anti, -anti)
    r_min = min(r_min, float(ratios.min()))
    r_max = max(r_max, float(ratios.max()))
    return max(r_max, 1.0 / r_min), r_min, r_max


def _run_sample(cfg: RunConfig):
    """(M_hat, sigma): the run's graph sample, built at the aperture its
    lambda policy takes from M_hat and cached in cfg.out.  The sample's
    cone is the run's only copy of that aperture."""
    m_hat = _pinch(cfg)[0]
    return m_hat, build_sigma(cfg.sigma_count, cfg.seed,
                              operator_cone(cfg.lambda_policy, m_hat),
                              cache_path=os.path.join(cfg.out, "sigma.cache"))


def operator_suite(cfg: RunConfig) -> dict:
    checks = []
    m_hat, sigma = _run_sample(cfg)
    mats = hess_w(sigma.sources[:min(500, sigma.count)])
    for label, c in (("policy", sigma.cone), ("paper", operator_cone("paper"))):
        rep = cone_condition(mats, c)
        checks.append(_check("cone_condition_" + label, rep.passed,
                             {"pairs": rep.pairs_checked,
                              "violations": len(rep.violations)},
                             witness={"pairs": rep.violations[:8]}))

    zl = zero_level_curve(sigma, cfg.heldout_count, cfg.heldout_seed)
    checks.append(_check("zero_level_bound", zl.worst_ratio <= 5.0,
                         zl.worst_ratio,
                         witness={"index": int(np.argmax(np.abs(zl.F_full) / zl.nn_bound))}))
    checks.append(_check("zero_level_monotone", zl.monotone, zl.max_abs_F))

    er = ellipticity_probe(sigma, cfg.elliptic_trials, cfg.seed)
    checks.append(_check("ellipticity_slopes", er.slope_min >= -1e-9,
                         {"slope_min": er.slope_min, "slope_max": er.slope_max,
                          "identity_slope": er.identity_slope}))
    checks.append(_check("level_set_cone", not er.level_violations,
                         {"pairs": er.level_pairs,
                          "violations": len(er.level_violations)},
                         witness={"pairs": er.level_violations[:8]}))

    mono_worst = monotonicity_sweep(sigma, cfg.monotonicity_trials, cfg.seed)
    checks.append(_check("degenerate_ellipticity", mono_worst >= -1e-9,
                         mono_worst))

    vr = viscosity_probe(sigma, max(2, cfg.viscosity_trials // 5), cfg.seed)
    checks.append(_check("viscosity_spot", vr.passed,
                         {"minorant_max_F": vr.minorant_max_F,
                          "majorant_min_F": vr.majorant_min_F}))

    return _suite_report(
        "operator", cfg, checks,
        {"lambda_used": sigma.cone.lam, "M_hat": m_hat,
         "Lambda_hat": er.slope_max,
         "Lambda_paper_chain": PAPER_CHAIN_BOUND,
         "maxF_curve": {"counts": zl.counts, "max_abs_F": zl.max_abs_F}},
        extra={"counts": {"sigma": cfg.sigma_count,
                          "heldout": cfg.heldout_count}})


def viscosity_suite(cfg: RunConfig) -> dict:
    cache = os.path.join(cfg.out, "sigma.cache")
    # the exact empirical lam of a cache is not recomputed, as that would
    # cost a pinch on every run
    sigma = (load_cache(cache, cfg.seed, cfg.sigma_count, cfg.lambda_policy)
             if os.path.exists(cache) else _run_sample(cfg)[1])
    vr = viscosity_probe(sigma, cfg.viscosity_trials, cfg.seed)
    checks = [
        _check("minorants", vr.minorant_violations == 0,
               {"max_F": vr.minorant_max_F, "violations": vr.minorant_violations}),
        _check("majorants", vr.majorant_violations == 0,
               {"min_F": vr.majorant_min_F, "violations": vr.majorant_violations}),
    ]
    return _suite_report(
        "viscosity", cfg, checks,
        {"minorant_max_F": vr.minorant_max_F,
         "majorant_min_F": vr.majorant_min_F,
         "trials": cfg.viscosity_trials, "margin": MINORANT_MARGIN,
         "lambda_used": sigma.cone.lam})


@dataclass(frozen=True)
class _Suite:
    """A suite subcommand: run(cfg) makes <output>.json, --count sets the
    RunConfig fields in count, and report.json lifts the named constants
    from its output."""
    output: str
    run: object
    count: tuple
    constants: tuple


_SUITES = {
    "verify-spectral": _Suite("spectral", spectral_suite, ("spectral_count",),
                              ("delta_hat",)),
    "verify-hessian": _Suite("hessian", hessian_suite,
                             ("witness_pairs", "ratio_pairs"),
                             ("M_hat", "ratio_min", "third_max")),
    "build-operator": _Suite("operator", operator_suite, ("sigma_count",),
                             ("Lambda_hat", "Lambda_paper_chain",
                              "lambda_used", "maxF_curve")),
    "viscosity-test": _Suite("viscosity", viscosity_suite,
                             ("viscosity_trials",),
                             ("minorant_max_F", "majorant_min_F")),
}


# ---------------------------------------------------------------------------
# report merging


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv_text(header: list, rows) -> str:
    return "".join(",".join(row) + "\n" for row in [header] + [
        [_cell(v) for v in row] for row in rows])


def _hist_rows(hist: dict) -> list:
    return [(0.5 * (hist["edges"][i] + hist["edges"][i + 1]), hist["counts"][i])
            for i in range(len(hist["counts"]))]


# the CSV table report makes from a suite output: (file, header, rows of it)
_TABLES = {
    "spectral": ("eigenvalues.csv",
                 ["m", "n"] + ["l%d" % (i + 1) for i in range(12)],
                 lambda rep: rep["eigen_sample"]),
    "hessian": ("ratio_hist.csv", ["ratio_bin_center", "count"],
                lambda rep: _hist_rows(rep["ratio_hist"])),
    "operator": ("maxF_curve.csv", ["sample_count", "max_abs_F"],
                 lambda rep: zip(rep["constants"]["maxF_curve"]["counts"],
                                 rep["constants"]["maxF_curve"]["max_abs_F"])),
}


def _file_error(command: str, path: str, exc: Exception) -> int:
    """One stderr line for an unusable input or output path; exit code 2."""
    reason = (exc.strerror if isinstance(exc, OSError)
              else "%s: %s" % (type(exc).__name__, exc))
    print("qcubic %s: %s: %s" % (command, path, reason), file=sys.stderr)
    return 2


def report_cmd(cfg: RunConfig) -> int:
    # every suite output is read and merged before anything is written
    suites, constants, tables = {}, {}, {}
    for s in _SUITES.values():
        path = os.path.join(cfg.out, s.output + ".json")
        if not os.path.exists(path):
            continue
        try:
            with open(path) as fh:
                rep = json.load(fh)
            suites[s.output] = {"passed": rep["passed"], "checks": [
                {"name": c["name"], "passed": c["passed"]} for c in rep["checks"]]}
            constants.update((k, rep["constants"][k]) for k in s.constants)
            if s.output in _TABLES:
                name, header, rows = _TABLES[s.output]
                tables[name] = _csv_text(header, rows(rep))
        except (OSError, ValueError, LookupError, TypeError) as exc:
            return _file_error("report", path, exc)
    missing = [n for n in ("spectral", "hessian", "operator")
               if n not in suites]
    if missing:
        print("report: missing suite outputs: %s (run the verify/build "
              "commands first)" % ", ".join(missing), file=sys.stderr)
        return 2

    merged = {
        "schema_version": SCHEMA_VERSION,
        "passed": all(s["passed"] for s in suites.values()),
        "suites": suites,
        "constants": constants,
    }
    # report.json is written last: a table that cannot be written leaves none
    os.makedirs(os.path.join(cfg.out, "tables"), exist_ok=True)
    for name, text in tables.items():
        _write(os.path.join(cfg.out, "tables", name), text)
    _write_json(os.path.join(cfg.out, "report.json"), merged)
    print("report: %s" % ("PASS" if merged["passed"] else "FAIL"))
    return 0 if merged["passed"] else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcubic",
        description="Verification suites for the twelve-variable cubic-form "
                    "potential and its Hessian-graph elliptic operator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, suite in [*_SUITES.items(), ("report", None)]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        if suite:
            p.add_argument("--seed", type=int)
            p.add_argument("--count", type=int,
                           help="sets " + " and ".join(suite.count))
            p.add_argument("--lambda-policy", dest="lambda_policy",
                           choices=LAMBDA_POLICIES)
        p.add_argument("--out", help="output directory (default qcubic-out)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args)
    except (ValueError, OSError) as exc:
        print("qcubic: %s" % exc, file=sys.stderr)
        return 2

    suite = _SUITES.get(args.command)
    t0 = time.time()
    # a suite's only files are its outputs and the graph cache, whose read
    # raises CacheError: an OSError is an unusable output path
    try:
        os.makedirs(cfg.out, exist_ok=True)
        if suite is None:
            return report_cmd(cfg)
        rep = suite.run(cfg)
        _write_json(os.path.join(cfg.out, suite.output + ".json"), rep)
    except (CacheError, GraphError) as exc:
        print("qcubic %s: %s" % (args.command, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        return _file_error(args.command, exc.filename or cfg.out, exc)
    status = "PASS" if rep["passed"] else "FAIL"
    print("%s: %s (%d checks, %.1fs)" % (args.command, status,
                                         len(rep["checks"]), time.time() - t0))
    for c in rep["checks"]:
        print("  %-28s %s" % (c["name"], "ok" if c["passed"] else
                              "FAIL worst=%r" % (c["worst"],)))
    return 0 if rep["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
