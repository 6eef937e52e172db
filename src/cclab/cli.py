"""Experiment runner: config parsing, dispatch, JSON/CSV reports.

Each registered experiment maps a validated config to a verdict plus tables.
Exit codes: 0 = all gated checks pass, 2 = inconclusive, 1 = failure or
config error.  Reports are deterministic for a fixed (config, seed): CSV
bodies are byte-identical across runs (timestamps live only in report.json).
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import symbol as sym_mod
from . import counterexamples as cex
from .field import GridField, random_bandlimited
from .decompose import helmholtz
from .quasiaffine import (INTEGRANDS, FAMILIES, quasiaffine_mean_test,
                          pairing_experiment, make_test_function)
from .norms import (YoungFunction, MaximalConfig, delta2_check,
                    hardy_bracket_check, luxemburg_norm, lebesgue_norm,
                    local_hardy_norm, young_conjugate)
from .truncate import lipschitz_truncations, chain_mask_inclusion
from .extension import pairing_identity, thmD_ensemble, interpolation_ensemble

__all__ = ["ExperimentConfig", "RunReport", "run", "main", "describe",
           "registry_listing", "item_rng"]

SCHEMA_VERSION = 1

_CONFIG_FIELDS = {"schema_version", "experiment", "seed", "out", "params"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out: str = "."
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_json(path):
        doc = json.loads(Path(path).read_text())
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version "
                              f"{doc.get('schema_version')}")
        if "experiment" not in doc:
            raise ConfigError("config is missing 'experiment'")
        return ExperimentConfig(experiment=doc["experiment"],
                                seed=int(doc.get("seed", 0)),
                                out=doc.get("out", "."),
                                params=dict(doc.get("params", {})))


@dataclass(frozen=True)
class RunReport:
    config: dict
    verdict: str
    results: dict
    wall_clock: float
    version: str
    seed: int


class ConfigError(ValueError):
    pass


def item_rng(seed, experiment, index):
    """Counter-based deterministic generator keyed by (seed, id, item)."""
    key = f"{seed}:{experiment}:{index}".encode()
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _merge_params(defaults, params, experiment):
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown params for {experiment}: {sorted(unknown)}")
    # a param takes its default's type, except that JSON gives lists for
    # tuples and an int is a valid float (a bool is never a number)
    loose = {tuple: (tuple, list), list: (tuple, list), float: (int, float)}
    for key, value in params.items():
        want = loose.get(type(defaults[key]), (type(defaults[key]),))
        if defaults[key] is not None and (not isinstance(value, want) or (
                isinstance(value, bool) and bool not in want)):
            names = " or ".join(t.__name__ for t in want)
            raise ConfigError(f"param {key!r} of {experiment} expects {names}, "
                              f"got {value!r}")
    out = dict(defaults)
    out.update(params)
    return out


def _exp_check_rank(cfg):
    p = _merge_params({"operator": "divcurl2", "samples": 400}, cfg.params,
                      "check-rank")
    sym = sym_mod.make_operator(p["operator"])
    report = sym_mod.constant_rank_check(sym, samples=int(p["samples"]))
    verdict = "pass" if report.is_constant else "fail"
    rows = [[p["operator"], report.rank, report.is_constant]]
    return verdict, {"rank": report.rank, "is_constant": report.is_constant}, {
        "rank": {"columns": [("operator", "exact"), ("rank", "measured"),
                             ("constant", "measured")], "rows": rows}}


def _exp_decompose(cfg):
    p = _merge_params({"operator": "divcurl2", "fields": 50, "shape": 64,
                       "tol_recon": 1e-10, "tol_ortho": 1e-9}, cfg.params,
                      "decompose")
    if int(p["fields"]) < 1:
        raise ConfigError(f"decompose needs fields >= 1, got {p['fields']!r}")
    sym = sym_mod.make_operator(p["operator"])
    report = sym_mod.constant_rank_check(sym, samples=200)
    rows, worst = [], {"recon": 0.0, "constraint": 0.0, "ortho": 0.0,
                       "potential": 0.0}
    shape = (int(p["shape"]),) * sym.n
    for i in range(int(p["fields"])):
        rng = item_rng(cfg.seed, "decompose", i)
        v = random_bandlimited(rng, shape, sym.dimV)
        res = helmholtz(v, sym, rank_report=report)
        worst["recon"] = max(worst["recon"], res.reconstructionError)
        worst["constraint"] = max(worst["constraint"], res.constraintResidual)
        worst["ortho"] = max(worst["ortho"], res.orthogonalityResidual)
        worst["potential"] = max(worst["potential"], res.potentialResidual)
        rows.append([i, res.reconstructionError, res.constraintResidual,
                     res.orthogonalityResidual, res.potentialResidual])
    ok = (worst["recon"] <= p["tol_recon"]
          and worst["constraint"] <= p["tol_recon"]
          and worst["ortho"] <= p["tol_ortho"]
          and worst["potential"] <= p["tol_ortho"])
    cols = [("item", "exact"), ("reconstruction", "measured"),
            ("constraint", "measured"), ("orthogonality", "measured"),
            ("potential", "measured")]
    return ("pass" if ok else "fail"), {"worst": worst}, {
        "residuals": {"columns": cols, "rows": rows}}


def _exp_pairing(cfg):
    p = _merge_params({"seq": "ex61", "indices": None, "tol": 1e-12,
                       "integrand": "divcurl_dot", "test": "bump"},
                      cfg.params, "pairing")
    seq = p["seq"]
    if seq == "ex61":
        spec = cex.make_spec(seq)
        indices = tuple(p["indices"] or (2, 4, 8, 16, 32, 64))
        pairings = [float(cex.make_sequence(spec, j)["F"].integral()[0])
                    for j in indices]
        devs = [abs(v - 1.0) for v in pairings]
        ok = max(devs) <= p["tol"]
        rows = [[j, v, d] for j, v, d in zip(indices, pairings, devs)]
        cols = [("j", "exact"), ("pairing", "measured"),
                ("deviation", "measured")]
        return ("pass" if ok else "fail"), {"pairings": pairings,
                                            "limit": 1.0}, {
            "pairing": {"columns": cols, "rows": rows}}
    if seq == "ex62":
        spec = cex.make_spec(seq)
        indices = tuple(p["indices"] or (2, 4, 8, 16, 32, 64))
        rep = cex.run_case(spec, indices)
        verdict_m = cex.sequence_verdict(rep["M"], 0.0)["verdict"]
        rows = [[j, v] for j, v in zip(indices, rep["M"])]
        cols = [("j", "exact"), ("pairing", "measured")]
        return ("pass" if verdict_m == "converges" else "fail"), {
            "pairings": rep["M"], "verdict": verdict_m}, {
            "pairing": {"columns": cols, "rows": rows}}
    if seq in FAMILIES:
        indices = tuple(p["indices"] or (8, 16, 32, 64, 128))
        phi = make_test_function(p["test"])
        rep = pairing_experiment(seq, p["integrand"], phi, indices,
                                 test_id=p["test"])
        ok = -1.2 <= rep.exponent <= -0.8
        rows = [[j, v] for j, v in zip(rep.indices, rep.values)]
        return ("pass" if ok else "fail"), {"exponent": rep.exponent}, {
            "pairing": {"columns": [("j", "exact"), ("pairing", "measured")],
                        "rows": rows}}
    raise ConfigError(f"unknown sequence {seq!r}")


def _exp_quasiaffine(cfg):
    p = _merge_params({"operator": "divcurl2", "integrand": "divcurl_dot",
                       "trials": 100, "tol": 1e-8}, cfg.params, "quasiaffine")
    sym = sym_mod.make_operator(p["operator"])
    F = INTEGRANDS[p["integrand"]]
    rep = quasiaffine_mean_test(F, sym, trials=int(p["trials"]),
                                seed=cfg.seed, tol=p["tol"])
    ok = rep["verdict"] == "quasiaffine-consistent"
    rows = [[i, r["deviation"]] for i, r in enumerate(rep["records"])]
    return ("pass" if ok else "fail"), {
        "verdict": rep["verdict"],
        "worst": rep["worst_relative_deviation"]}, {
        "trials": {"columns": [("trial", "exact"), ("deviation", "measured")],
                   "rows": rows}}


_EXPECTED_TABLE1 = (("(i)", ("fail", "fail", "fail")),
                    ("(ii)", ("pass", "fail", "fail")),
                    ("(iii)", ("pass", "fail", "pass")),
                    ("(iv)", ("pass", "pass", "fail")))


def _exp_table1(cfg):
    p = _merge_params({}, cfg.params, "table1")
    del p
    rows_out = cex.table1()
    got = tuple((r.scenario, r.pattern) for r in rows_out)
    ok = got == _EXPECTED_TABLE1
    rows = [[r.scenario, *r.pattern] for r in rows_out]
    cols = [("scenario", "exact"), ("measures", "measured"),
            ("L1", "measured"), ("hardy", "measured")]
    return ("pass" if ok else "fail"), {"pattern": [list(g) for _, g in got]}, {
        "table1": {"columns": cols, "rows": rows}}


def _exp_counterexample(cfg):
    p = _merge_params({"case": "ex63", "indices": None, "overrides": {}},
                      cfg.params, "counterexample")
    spec = cex.make_spec(p["case"], **p["overrides"])
    rep = cex.run_case(spec, p["indices"])
    verdict, rows, cols = "pass", [], []
    if p["case"] == "ex63":
        verdict = "pass" if (rep["divergent"]
                             and math.isfinite(rep["constraint_mass"])) else "fail"
        cols = [("level", "exact"), ("llogl_mass", "measured")]
        rows = [[lv, m] for lv, m in zip(rep["levels"], rep["llogl_masses"])]
    elif p["case"] == "appendixOrlicz":
        verdict = "pass" if rep["divergent"] else "fail"
        cols = [("level", "exact"), ("llogl_mass", "measured")]
        rows = [[lv, m] for lv, m in
                zip((10.0, 1e2, 1e3, 1e4, 1e5, 1e6), rep["llogl_masses"])]
    elif p["case"] == "jac_case2":
        if "max_rel_err" in rep:
            verdict = "pass" if rep["max_rel_err"] <= 1e-12 else "fail"
            cols = [("k", "exact"), ("pairing", "measured"),
                    ("closed_form", "reference")]
            rows = [[k, v, c] for k, v, c in
                    zip(rep["k"], rep["pairings"], rep["closed_form"])]
        else:
            rel = abs(rep["fitted_exponent"] - rep["expected_exponent"])
            verdict = ("pass" if rel <= 0.15 * abs(rep["expected_exponent"])
                       else "fail")
            cols = [("k", "exact"), ("pairing", "measured")]
            rows = [[k, v] for k, v in zip(rep["k"], rep["pairings"])]
    elif p["case"] == "jac_case3":
        pi_n = math.pi ** spec.params["n"]
        in_band = all(0.5 * pi_n <= r <= 2.0 * pi_n for r in rep["log_ratios"])
        verdict = ("pass" if rep["max_rel_err"] <= 1e-12 and in_band
                   else "fail")
        cols = [("k", "exact"), ("pairing", "measured"), ("exact", "reference")]
        rows = [[k, v, e] for k, v, e in
                zip(rep["k"], rep["pairings"], rep["exact"])]
    else:
        cols = [("key", "exact"), ("value", "measured")]
        rows = [[k, v] for k, v in sorted(rep.items())
                if isinstance(v, (int, float, str))]
    return verdict, {k: v for k, v in rep.items()
                     if isinstance(v, (int, float, str, bool, list))}, {
        p["case"]: {"columns": cols, "rows": rows}}


def _truncate_case(rng, shape1d, n):
    period = 2 * math.pi
    shape = (shape1d,) * n
    axes = [np.arange(s) * period / s for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = np.zeros(shape)
    for _ in range(4):
        c = rng.uniform(0.5, period - 0.5, size=n)
        w = rng.uniform(0.2, 0.8)
        amp = rng.uniform(-3.0, 3.0)
        r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
        vals += amp * np.exp(-r2 / (2 * w * w))
    # one sharp spike to force a nonempty bad set at moderate lambda
    c = rng.uniform(1.0, period - 1.0, size=n)
    r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
    vals += rng.uniform(4.0, 8.0) * np.exp(-r2 / (2 * 0.05**2))
    return GridField(vals[..., None], (period,) * n)


def _exp_truncate(cfg):
    p = _merge_params({"cases": 10, "n": 2, "k": 1, "shape": 128,
                       "lambdas": (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)},
                      cfg.params, "truncate")
    rows, worst_bound = [], 0.0
    vol_by_lam = {lam: [] for lam in p["lambdas"]}
    chain_ok = True
    for i in range(int(p["cases"])):
        rng = item_rng(cfg.seed, "truncate", i)
        v = _truncate_case(rng, int(p["shape"]), int(p["n"]))
        for res in lipschitz_truncations(v, p["lambdas"], k=int(p["k"])):
            lam = res.lam
            worst_bound = max(worst_bound, res.measuredDerivBound)
            if math.isfinite(res.measuredVolumeConstant):
                vol_by_lam[lam].append(res.measuredVolumeConstant)
            chain_ok = chain_ok and chain_mask_inclusion(v, res)
            rows.append([i, lam, res.measuredDerivBound,
                         res.measuredVolumeConstant, int(np.sum(res.badSet))])
    # lambdas whose bad sets were empty throughout contribute no ratio
    maxima = [max(vs) for vs in vol_by_lam.values() if vs and max(vs) > 0]
    vol_ratio = max(maxima) / min(maxima) if maxima else 1.0
    ok = worst_bound <= 64.0 and vol_ratio <= 8.0 and chain_ok
    cols = [("case", "exact"), ("lambda", "exact"),
            ("deriv_bound", "measured"), ("volume_const", "measured"),
            ("bad_cells", "measured")]
    return ("pass" if ok else "fail"), {
        "worst_deriv_bound": worst_bound, "volume_ratio": vol_ratio,
        "chain_ok": chain_ok}, {"truncate": {"columns": cols, "rows": rows}}


def _exp_hardy(cfg):
    p = _merge_params({"test": "bump", "R": 1.0, "shape": 256},
                      cfg.params, "hardy")
    f = make_test_function(p["test"], shape=(int(p["shape"]),) * 2)
    val = local_hardy_norm(f, p["R"], MaximalConfig())
    ok = math.isfinite(val)
    return ("pass" if ok else "fail"), {"hardy_norm": val}, {
        "hardy": {"columns": [("test", "exact"), ("R", "exact"),
                              ("norm", "measured")],
                  "rows": [[p["test"], p["R"], val]]}}


def _exp_extension_identity(cfg):
    p = _merge_params({"cases": 5, "T": 8.0,
                       "levels": ((64, 16), (128, 32), (256, 64)),
                       "tol": 1e-3}, cfg.params, "extension-identity")
    rows, ok = [], True
    for i in range(int(p["cases"])):
        errs = []
        for N, L in p["levels"]:
            rng = item_rng(cfg.seed, "extension-identity", f"{i}:{N}")
            u = random_bandlimited(rng, (int(N),) * 2, 2, cutoff=True)
            phi = random_bandlimited(rng, (int(N),) * 2, 1, cutoff=True)
            rep = pairing_identity(u, phi, T=p["T"], tLevels=int(L))
            errs.append(rep["relError"])
            rows.append([i, N, L, rep["lhs"], rep["rhs"], rep["relError"]])
        monotone = all(a >= b for a, b in zip(errs, errs[1:]))
        ok = ok and monotone and errs[-1] <= p["tol"]
    cols = [("case", "exact"), ("grid", "exact"), ("t_levels", "exact"),
            ("lhs", "measured"), ("rhs", "measured"), ("rel_error", "measured")]
    return ("pass" if ok else "fail"), {"final_ok": ok}, {
        "identity": {"columns": cols, "rows": rows}}


def _exp_thmD(cfg):
    p = _merge_params({"alpha": 0.5, "s": 2, "max_spread": 4.0},
                      cfg.params, "thmD")
    ens = thmD_ensemble(alpha=p["alpha"], s=int(p["s"]))
    cor = interpolation_ensemble(alpha=p["alpha"])
    ok = ens["spread"] <= p["max_spread"] and cor["spread"] <= p["max_spread"]
    rows = [[r["m"], r["amplitude"], r["ratio"]] for r in ens["records"]]
    cols = [("m", "exact"), ("amplitude", "exact"), ("ratio", "measured")]
    return ("pass" if ok else "fail"), {
        "spread": ens["spread"], "interpolation_spread": cor["spread"]}, {
        "ratios": {"columns": cols, "rows": rows}}


def _exp_orlicz(cfg):
    p = _merge_params({"p": 2.0, "tol_lux": 1e-8}, cfg.params, "orlicz")
    rng = item_rng(cfg.seed, "orlicz", 0)
    f = GridField(rng.normal(size=(64, 64, 1)), (2 * math.pi, 2 * math.pi))
    pw = p["p"]
    lux = luxemburg_norm(f, YoungFunction.power(pw))
    leb = lebesgue_norm(f, pw)
    lux_ok = abs(lux - leb) <= p["tol_lux"] * max(1.0, leb)
    with np.errstate(over="ignore"):
        d2a = delta2_check(YoungFunction.zygmund(pw, 1.0))
        d2b = delta2_check(YoungFunction.exp_minus_one())
    cubic = YoungFunction(phi=lambda t: t**3 / 3.0, dphi=lambda t: t**2,
                          label="t^3/3")
    star2 = young_conjugate(young_conjugate(cubic))
    ts = np.geomspace(1e-2, 1e2, 41)
    round_trip = float(np.max(np.abs(star2(ts) - cubic(ts))
                              / np.maximum(cubic(ts), 1e-300)))
    good = hardy_bracket_check(YoungFunction.zygmund(2, 0.5), 2.0)
    bad = hardy_bracket_check(YoungFunction.zygmund(2, 2.0), 2.0)
    ok = (lux_ok and d2a["delta2"] and not d2b["delta2"]
          and round_trip <= 1e-5 and good["ok"] and not bad["ok"])
    rows = [["luxemburg_vs_lebesgue", abs(lux - leb), lux_ok],
            ["delta2_zygmund", d2a["k"], d2a["delta2"]],
            ["delta2_exp", d2b["k"], d2b["delta2"]],
            ["conjugate_round_trip", round_trip, round_trip <= 1e-5],
            ["bracket_accepts_log_half", 0.0, good["ok"]],
            ["bracket_rejects_log_two", 0.0, not bad["ok"]]]
    cols = [("check", "exact"), ("value", "measured"), ("ok", "measured")]
    return ("pass" if ok else "fail"), {"luxemburg_gap": abs(lux - leb),
                                        "round_trip": round_trip}, {
        "orlicz": {"columns": cols, "rows": rows}}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY = {
    "check-rank": {
        "runner": _exp_check_rank,
        "summary": "certify constant rank of a named operator symbol",
        "anchor": "rank A(xi) constant on the unit sphere"},
    "decompose": {
        "runner": _exp_decompose,
        "summary": "frequency-space splitting v = b + A* w with residuals",
        "anchor": "bPart^ = P(xi) v^, w^ = (A A^T)^+ i^l A v^"},
    "pairing": {
        "runner": _exp_pairing,
        "summary": "sequence pairings against a test function, fitted decay",
        "anchor": "int F(v_j, vt_j) phi dx"},
    "quasiaffine": {
        "runner": _exp_quasiaffine,
        "summary": "exact mean identity over random constraint-free fields",
        "anchor": "mean of F(v0 + pert) equals F(v0)"},
    "table1": {
        "runner": _exp_table1,
        "summary": "four-scenario verdict matrix (measures / L1 / hardy)",
        "anchor": "check/cross matrix of the failure modes"},
    "counterexample": {
        "runner": _exp_counterexample,
        "summary": "named witness families and their measured verdicts",
        "anchor": "see describe(<case>) for the per-case formula"},
    "truncate": {
        "runner": _exp_truncate,
        "summary": "Lipschitz truncation ensemble: derivative + volume gates",
        "anchor": "||D^k u||_inf <= C lambda, u = v off the bad set"},
    "hardy": {
        "runner": _exp_hardy,
        "summary": "local Hardy norm of a registered test function",
        "anchor": "int_{B_R} sup_t |f * rho_t| dx"},
    "extension-identity": {
        "runner": _exp_extension_identity,
        "summary": "surface Jacobian pairing as a half-space bulk integral",
        "anchor": "int det(Du) phi = -int_0^T int det D_{t,x}(Phi,U1,U2)"},
    "thmD": {
        "runner": _exp_thmD,
        "summary": "ratio stability of the fractional determinant estimate",
        "anchor": "|<F(u)-F(v),phi>| vs [phi]_alpha [u-v] ([u]+[v])^{s-1}"},
    "orlicz": {
        "runner": _exp_orlicz,
        "summary": "Young-function toolbox self-consistency checks",
        "anchor": "Luxemburg, conjugate round trip, Delta_2, t^s bracket"},
}

_CASE_ANCHORS = {
    "ex61": "v_j = j 1_{(0,1/j)^2} e, pairing = 1 for all j",
    "ex62": "glued harmonic gradients, masses +pi / -pi at r = 1/2",
    "ex63": "w(t) = t^(-1/r) log(1+1/t)^(-(beta+1+gamma)/r), F = w^2",
    "jac_case1": "u^(k) = k^((alpha-1)/n + gamma) g(k x), det moment a_1",
    "jac_case2": "pairing = pi^n k^(n - alpha - n beta1)",
    "jac_case3": "n_l = k^(n^2/alpha) * 8^l, pairing = pi^n sum 1/(l+1)",
    "appendixOrlicz": "g(t) t = phi^{-1}(psi(t)), phi = t^2, "
                      "psi = t^2 log(1+t)",
}


def registry_listing():
    ops = sorted(sym_mod.NAMED_OPERATORS)
    return {"experiments": sorted(REGISTRY),
            "operators": ops,
            "integrands": sorted(INTEGRANDS),
            "sequences": sorted(cex.CASES) + sorted(FAMILIES),
            "norm_variants": ["lebesgue", "zygmund", "orlicz", "negsob",
                              "gagliardo", "holder", "hardy"]}


def describe(name):
    if name in REGISTRY:
        entry = REGISTRY[name]
        return f"{name}: {entry['summary']}\n  anchor: {entry['anchor']}"
    if name in _CASE_ANCHORS:
        return f"{name}: witness family\n  anchor: {_CASE_ANCHORS[name]}"
    pool = list(REGISTRY) + list(_CASE_ANCHORS)
    close = difflib.get_close_matches(name, pool, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise KeyError(f"unknown id {name!r}{hint}")


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))  # a NumPy float64 repr reads np.float64(...)
    return str(x)


def write_csv(path, table, seed):
    lines = [f"# schema_version={SCHEMA_VERSION}", f"# seed={seed}"]
    for name, tag in table["columns"]:
        lines.append(f"# column {name} tag={tag}")
    lines.append(",".join(name for name, _ in table["columns"]))
    for row in table["rows"]:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def run(config):
    """Execute one experiment; writes report.json + one CSV per table."""
    if config.experiment not in REGISTRY:
        close = difflib.get_close_matches(config.experiment, REGISTRY, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigError(f"unknown experiment {config.experiment!r}{hint}")
    t0 = time.time()
    verdict, results, tables = REGISTRY[config.experiment]["runner"](config)
    wall = time.time() - t0
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        write_csv(out / f"{name}.csv", table, config.seed)
    report = RunReport(config=asdict(config), verdict=verdict,
                       results=results, wall_clock=wall,
                       version=__version__, seed=config.seed)
    doc = asdict(report)
    doc["schema_version"] = SCHEMA_VERSION
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    (out / "report.json").write_text(json.dumps(doc, indent=2, default=str))
    return report


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _error_object(msg):
    return json.dumps({"error": True, "message": str(msg)})


_EXIT = {"pass": 0, "inconclusive": 2, "fail": 1}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cc-lab", description="compensated-compactness experiment lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name in REGISTRY:
        sp = sub.add_parser(name, help=REGISTRY[name]["summary"])
        sp.add_argument("--config", default=None,
                        help="JSON config (overrides other flags)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".")
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="experiment parameter override (JSON value)")
        if name == "pairing":
            sp.add_argument("--seq", default=None)
        if name == "counterexample":
            sp.add_argument("--case", default=None)
    lp = sub.add_parser("list", help="registry contents")
    del lp
    dp = sub.add_parser("describe", help="describe a registered id")
    dp.add_argument("id")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "list":
        print(json.dumps(registry_listing(), indent=2))
        return 0
    if args.command == "describe":
        try:
            print(describe(args.id))
            return 0
        except KeyError as e:
            print(_error_object(e), file=sys.stderr)
            return 1
    try:
        if args.config:
            config = ExperimentConfig.from_json(args.config)
            if config.experiment != args.command:
                raise ConfigError(
                    f"config experiment {config.experiment!r} does not match "
                    f"subcommand {args.command!r}")
        else:
            params = {}
            for kv in args.param:
                key, _, raw = kv.partition("=")
                if not _:
                    raise ConfigError(f"malformed --param {kv!r}")
                try:
                    params[key] = json.loads(raw)
                except json.JSONDecodeError:
                    params[key] = raw
            if getattr(args, "seq", None):
                params["seq"] = args.seq
            if getattr(args, "case", None):
                params["case"] = args.case
            config = ExperimentConfig(experiment=args.command, seed=args.seed,
                                      out=args.out, params=params)
        report = run(config)
    except Exception as e:  # any failure ends in the JSON error object
        print(_error_object(e), file=sys.stderr)
        return 1
    print(json.dumps({"experiment": config.experiment,
                      "verdict": report.verdict,
                      "results": report.results}, indent=2, default=str))
    return _EXIT.get(report.verdict, 1)


if __name__ == "__main__":
    sys.exit(main())
