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
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .cones import ConeParams, cone_condition
from .cubic import (spectrum_sweep, strata_directions, q_matrix, perp_sweep,
                    cubic_roots_check, cor4_check, invariants_mn, band_slack)
from .eigen import jacobi_eigh
from .elliptic import (build_sigma, OperatorF, zero_level_curve,
                       ellipticity_probe, monotonicity_sweep, viscosity_probe,
                       operator_cone, load_cache, CacheError, GraphError)
from .hessian import (hess_w, grad_w, eval_w, witness_worst,
                      third_derivative_sweep, ratio_bound_estimate,
                      pair_ratio_sweep, RATIO_BOUND, THIRD_DERIVATIVE_BOUND)
from .numdiff import fd_gradient, fd_jacobian
from .sampling import (rng_for, unit_sphere, directions,
                       PAIR_CHUNK, STREAM_SPECTRAL, STREAM_PERP,
                       STREAM_HESSIAN, STREAM_WITNESS, STREAM_THIRD,
                       STREAM_FDCHECK)

SCHEMA_VERSION = 1


def _count(default: int, least: int):
    """A RunConfig sample count; validate() enforces the minimum."""
    return field(default=default, metadata={"min": least})


@dataclass
class RunConfig:
    seed: int = 42
    tolerance: float | None = None
    lambda_policy: str = "empirical"
    out: str = "qcubic-out"
    # per-suite sample counts
    spectral_count: int = _count(10_000, 10)      # random directions
    strata_count: int = _count(50, 2)             # per stratum class
    perp_count: int = _count(100_000, 100)        # compression-ratio samples
    cor4_pairs: int = _count(200, 2)              # growth-bound pairs
    fd_count: int = _count(1_000, 10)             # finite-difference points
    witness_pairs: int = _count(100_000, 10)      # witness pairs
    ratio_pairs: int = _count(100_000, 100)       # pinch-estimate pairs
    third_count: int = _count(10_000, 10)         # third-derivative samples
    sigma_count: int = _count(500, 2)             # graph sample size
    heldout_count: int = _count(200, 10)          # held-out graph points
    heldout_seed: int = 7
    elliptic_trials: int = _count(400, 4)         # slope probes
    monotonicity_trials: int = _count(2_000, 10)  # psd-increment trials
    viscosity_trials: int = _count(1_000, 2)      # one-sided quadratics

    def validate(self):
        for f in fields(self):
            val = getattr(self, f.name)
            want = (int, float) if f.name == "tolerance" else (type(f.default),)
            unset = val is None and f.default is None
            if not unset and type(val) not in want:
                raise ValueError("config: %s must be of type %s, got %r" % (
                    f.name, " or ".join(t.__name__ for t in want), val))
            if "min" in f.metadata and val < f.metadata["min"]:
                raise ValueError("config: %s must be >= %d" % (
                    f.name, f.metadata["min"]))
        if self.lambda_policy not in ("paper", "empirical"):
            raise ValueError("config: lambda_policy must be paper|empirical")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("config: tolerance must be positive")


def parse_config_file(path: str) -> dict:
    """key = value lines; '#' comments; ints/floats coerced."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            try:
                out[key] = int(val)
            except ValueError:
                try:
                    out[key] = float(val)
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


def _write_json(path: str, obj) -> None:
    # every non-JSON value a suite reports is an ndarray or numpy scalar
    text = json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda a: a.tolist())
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


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
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-8
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
    checks.append(_check("closed_form_spectrum", worst <= tol, worst,
                         witness={"index": k if k < n else n - 1 - k,
                                  "direction": both[k]}))

    slack = band_slack(vals)
    k = int(np.argmin(slack))
    checks.append(_check("eigenvalue_bands", bool(np.all(slack >= 0)),
                         float(slack.min()), witness={"index": k}))

    # per-direction reference path (reference solver + band report)
    worst_report = float(np.min(band_slack(np.stack(
        [jacobi_eigh(q_matrix(d * (np.sqrt(3.0) / np.linalg.norm(d))))[0]
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
    res = cor4_check(u[kept], v[kept])
    lo = np.minimum(res["lower_slack"], res["upper_slack"])
    k = int(np.argmin(lo))  # the first minimal pair
    checks.append(_check("growth_bound", lo[k] >= -1e-9, float(lo[k]),
                         witness={"pair_index": int(kept[k])}))

    m_s, n_s, t_s = invariants_mn(dirs[:16])
    sample = np.concatenate([np.asarray(m_s, dtype=float)[:, None],
                             np.asarray(n_s, dtype=float)[:, None],
                             closed[:min(16, n)]], axis=1)
    return _suite_report(
        "spectral", cfg, checks,
        {"delta_hat": delta_hat, "spectrum_tolerance": tol,
         "max_spectrum_mismatch": worst},
        extra={"eigen_sample": sample,
               "counts": {"directions": cfg.spectral_count,
                          "strata": int(strata.shape[0]),
                          "perp": cfg.perp_count}})


def hessian_suite(cfg: RunConfig) -> dict:
    fd_tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
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
    checks.append(_check("fd_gradient", worst_g < fd_tol, worst_g))
    checks.append(_check("fd_hessian", worst_h < fd_tol, worst_h))

    worst_w = witness_worst(rng_for(cfg.seed, STREAM_WITNESS),
                            cfg.witness_pairs)
    checks.append(_check("witness_slopes", worst_w >= -1e-9, float(worst_w)))

    _, r_min, r_max = ratio_bound_estimate(
        rng_for(cfg.seed, STREAM_HESSIAN), cfg.ratio_pairs)
    anti = unit_sphere(rng_for(cfg.seed, STREAM_HESSIAN + 300), 500)
    anti_data = pair_ratio_sweep(anti, -anti)
    r_min = min(r_min, float(anti_data[:, 2].min()))
    r_max = max(r_max, float(anti_data[:, 2].max()))
    m_hat = max(r_max, 1.0 / r_min)
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
    hist, _ = np.histogram(pair_ratio_sweep(aa[keep], bb[keep])[:, 2], bins=edges)
    return _suite_report(
        "hessian", cfg, checks,
        {"M_hat": m_hat, "ratio_min": r_min, "ratio_max": r_max,
         "third_max": t_max, "ratio_bound": float(RATIO_BOUND),
         "fd_tolerance": fd_tol},
        extra={"ratio_hist": {"edges": edges, "counts": hist},
               "counts": {"fd": cfg.fd_count, "witness": cfg.witness_pairs,
                          "ratio": cfg.ratio_pairs, "third": cfg.third_count}})


def _policy_cone(cfg: RunConfig):
    """(M_hat, operator cone) from the pair-ratio estimate and the policy."""
    m_hat, _, _ = ratio_bound_estimate(rng_for(cfg.seed, STREAM_HESSIAN),
                                       min(cfg.ratio_pairs, 100_000))
    return m_hat, operator_cone(
        cfg.lambda_policy, None if cfg.lambda_policy == "paper" else m_hat)


def operator_suite(cfg: RunConfig) -> dict:
    checks = []
    m_hat, cone = _policy_cone(cfg)

    sigma = build_sigma(cfg.sigma_count, cfg.seed, cone,
                        cache_path=os.path.join(cfg.out, "sigma.cache"))
    mats = hess_w(sigma.sources[:min(500, sigma.count)])
    for label, lam in (("policy", cone.lam), ("paper", 11.0 * RATIO_BOUND)):
        rep = cone_condition(mats, ConeParams(lam))
        checks.append(_check("cone_condition_" + label, rep.passed,
                             {"pairs": rep.pairs_checked,
                              "violations": len(rep.violations)},
                             witness={"pairs": rep.violations[:8]}))

    counts = sorted({max(2, cfg.sigma_count // 8), max(2, cfg.sigma_count // 4),
                     max(2, cfg.sigma_count // 2), cfg.sigma_count})
    zl = zero_level_curve(sigma, cone, counts=counts,
                          heldout_count=cfg.heldout_count,
                          heldout_seed=cfg.heldout_seed)
    checks.append(_check("zero_level_bound", zl.worst_ratio <= 5.0,
                         zl.worst_ratio,
                         witness={"index": int(np.argmax(np.abs(zl.F_full) / zl.nn_bound))}))
    checks.append(_check("zero_level_monotone", zl.monotone, zl.max_abs_F))

    op = OperatorF(sigma, cone)
    er = ellipticity_probe(op, cfg.elliptic_trials, cfg.seed)
    checks.append(_check("ellipticity_slopes",
                         er.monotone_worst >= -1e-9 and er.slope_min >= -1e-9,
                         {"slope_min": er.slope_min, "slope_max": er.slope_max,
                          "identity_slope": er.identity_slope}))
    checks.append(_check("level_set_cone", not er.level_violations,
                         {"pairs": er.level_pairs,
                          "violations": len(er.level_violations)},
                         witness={"pairs": er.level_violations[:8]}))

    mono_worst = monotonicity_sweep(op, cfg.monotonicity_trials, cfg.seed + 1)
    checks.append(_check("degenerate_ellipticity", mono_worst >= -1e-9,
                         mono_worst))

    vr = viscosity_probe(op, max(2, cfg.viscosity_trials // 5), cfg.seed)
    checks.append(_check("viscosity_spot", vr.passed,
                         {"minorant_max_F": vr.minorant_max_F,
                          "majorant_min_F": vr.majorant_min_F}))

    return _suite_report(
        "operator", cfg, checks,
        {"lambda_used": cone.lam, "M_hat": m_hat,
         "Lambda_hat": er.slope_max,
         "Lambda_paper_chain": er.paper_chain_bound,
         "maxF_curve": {"counts": zl.counts, "max_abs_F": zl.max_abs_F}},
        extra={"counts": {"sigma": cfg.sigma_count,
                          "heldout": cfg.heldout_count}})


def viscosity_suite(cfg: RunConfig) -> dict:
    cache = os.path.join(cfg.out, "sigma.cache")
    if os.path.exists(cache):
        sigma = load_cache(cache)
        if sigma.lam <= 1.0:
            raise CacheError("cached sample has no usable aperture")
        cone = ConeParams(sigma.lam)
    else:
        _, cone = _policy_cone(cfg)
        sigma = build_sigma(cfg.sigma_count, cfg.seed, cone, cache_path=cache)
    op = OperatorF(sigma, cone)
    vr = viscosity_probe(op, cfg.viscosity_trials, cfg.seed)
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
         "trials": vr.trials, "margin": vr.margin,
         "lambda_used": cone.lam})


@dataclass(frozen=True)
class _Suite:
    """A suite subcommand: run(cfg) makes <output>.json, --count sets the
    RunConfig fields in count, tolerance says whether it reads --tolerance,
    and report.json lifts the named constants from its output."""
    output: str
    run: object
    count: tuple
    tolerance: bool
    constants: tuple


_SUITES = {
    "verify-spectral": _Suite("spectral", spectral_suite, ("spectral_count",),
                              True, ("delta_hat",)),
    "verify-hessian": _Suite("hessian", hessian_suite,
                             ("witness_pairs", "ratio_pairs"), True,
                             ("M_hat", "ratio_min", "third_max")),
    "build-operator": _Suite("operator", operator_suite, ("sigma_count",),
                             False, ("Lambda_hat", "Lambda_paper_chain",
                                     "lambda_used", "maxF_curve")),
    "viscosity-test": _Suite("viscosity", viscosity_suite,
                             ("viscosity_trials",), False,
                             ("minorant_max_F", "majorant_min_F")),
}


# ---------------------------------------------------------------------------
# report merging


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def report_cmd(cfg: RunConfig) -> int:
    suites = {}
    for suite in _SUITES.values():
        path = os.path.join(cfg.out, suite.output + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                suites[suite.output] = json.load(fh)
    missing = [n for n in ("spectral", "hessian", "operator")
               if n not in suites]
    if missing:
        print("report: missing suite outputs: %s (run the verify/build "
              "commands first)" % ", ".join(missing), file=sys.stderr)
        return 2

    constants = {key: suites[s.output]["constants"][key]
                 for s in _SUITES.values() if s.output in suites
                 for key in s.constants}
    merged = {
        "schema_version": SCHEMA_VERSION,
        "passed": all(s["passed"] for s in suites.values()),
        "suites": {k: {"passed": v["passed"],
                       "checks": [{"name": c["name"], "passed": c["passed"]}
                                  for c in v["checks"]]}
                   for k, v in suites.items()},
        "constants": constants,
    }
    _write_json(os.path.join(cfg.out, "report.json"), merged)

    tables = os.path.join(cfg.out, "tables")
    os.makedirs(tables, exist_ok=True)
    sample = suites["spectral"]["eigen_sample"]
    _write_csv(os.path.join(tables, "eigenvalues.csv"),
               ["m", "n"] + ["l%d" % (i + 1) for i in range(12)], sample)
    hist = suites["hessian"]["ratio_hist"]
    rows = [(0.5 * (hist["edges"][i] + hist["edges"][i + 1]), hist["counts"][i])
            for i in range(len(hist["counts"]))]
    _write_csv(os.path.join(tables, "ratio_hist.csv"),
               ["ratio_bin_center", "count"], rows)
    curve = constants["maxF_curve"]
    _write_csv(os.path.join(tables, "maxF_curve.csv"),
               ["sample_count", "max_abs_F"],
               zip(curve["counts"], curve["max_abs_F"]))
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
            if suite.tolerance:
                p.add_argument("--tolerance", type=float)
            p.add_argument("--lambda-policy", dest="lambda_policy",
                           choices=["paper", "empirical"])
        p.add_argument("--out", help="output directory (default qcubic-out)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args)
    except (ValueError, OSError) as exc:
        print("qcubic: %s" % exc, file=sys.stderr)
        return 2

    os.makedirs(cfg.out, exist_ok=True)
    if args.command == "report":
        return report_cmd(cfg)

    suite = _SUITES[args.command]
    t0 = time.time()
    try:
        rep = suite.run(cfg)
    except (CacheError, GraphError) as exc:
        print("qcubic %s: %s" % (args.command, exc), file=sys.stderr)
        return 2
    _write_json(os.path.join(cfg.out, suite.output + ".json"), rep)
    status = "PASS" if rep["passed"] else "FAIL"
    print("%s: %s (%d checks, %.1fs)" % (args.command, status,
                                         len(rep["checks"]), time.time() - t0))
    for c in rep["checks"]:
        print("  %-28s %s" % (c["name"], "ok" if c["passed"] else
                              "FAIL worst=%r" % (c["worst"],)))
    return 0 if rep["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
