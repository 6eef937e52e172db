"""Experiment runner: config parsing, dispatch, JSON/CSV reports.

Each registered experiment maps validated params to checks, results and
tables; `verdict_of` derives the verdict from the checks.  Exit codes: 0 =
every check passes, 2 = inconclusive (nothing checked), 1 = a check fails or
the config is bad.  Reports are deterministic for a fixed (config, seed): CSV
bodies are byte-identical across runs (timestamps live only in report.json).
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import symbol as sym_mod
from . import counterexamples as cex
from .field import GridField, random_bandlimited
from .decompose import helmholtz_splits
from .quasiaffine import (INTEGRANDS, FAMILIES, quasiaffine_mean_test,
                          pairing_experiment, make_test_function)
from .norms import (YoungFunction, MaximalConfig, delta2_check,
                    hardy_bracket_check, luxemburg_norm, lebesgue_norm,
                    local_hardy_norm, young_conjugate)
from .truncate import (C_IMPL, lipschitz_truncations, chain_mask_inclusion,
                       truncation_case)
from .extension import pairing_identity, thmD_ensemble, interpolation_ensemble

__all__ = ["Check", "ExperimentConfig", "RunReport", "run", "main", "describe",
           "registry_listing", "item_rng", "verdict_of"]

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


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One gate: `measured relation bound`, over `items` rows, fields, trials
    or cases (1 for a single value; 0 when there was nothing to check)."""
    name: str
    measured: object
    bound: object
    relation: str = "<="
    items: int = 1

    @property
    def ok(self):
        return bool(_RELATIONS[self.relation](self.measured, self.bound))

    @property
    def margin(self):
        if self.relation == "<=":
            return self.bound - self.measured
        if self.relation == ">=":
            return self.measured - self.bound
        return None


def verdict_of(checks):
    """fail if any check fails; else inconclusive if nothing was checked (no
    checks, or a check over zero items); else pass."""
    if not all(c.ok for c in checks):
        return "fail"
    if not checks or any(c.items == 0 for c in checks):
        return "inconclusive"
    return "pass"


@dataclass(frozen=True)
class RunReport:
    config: dict
    verdict: str
    checks: tuple
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


REGISTRY = {}


def _experiment(name, summary, anchor, **defaults):
    """Register runner(p, seed) -> (checks, results, tables) and its params."""
    def register(runner):
        REGISTRY[name] = {"runner": runner, "summary": summary,
                          "anchor": anchor, "defaults": defaults}
        return runner
    return register


@_experiment("check-rank", "certify constant rank of a named operator symbol",
             "rank A(xi) constant on the unit sphere",
             operator="divcurl2", samples=400)
def _exp_check_rank(p, seed):
    sym = sym_mod.make_operator(p["operator"])
    report = sym_mod.constant_rank_check(sym, samples=int(p["samples"]))
    checks = [Check("constant_rank", report.is_constant, True, "==",
                    report.samples)]
    rows = [[p["operator"], report.rank, report.is_constant]]
    return checks, {"rank": report.rank, "is_constant": report.is_constant}, {
        "rank": {"columns": [("operator", "exact"), ("rank", "measured"),
                             ("constant", "measured")], "rows": rows}}


@_experiment("decompose",
             "frequency-space splitting v = b + A* w with residuals",
             "bPart^ = P(xi) v^, w^ = (A A^T)^+ i^l A v^", operator="divcurl2",
             fields=50, shape=64, tol_recon=1e-10, tol_ortho=1e-9)
def _exp_decompose(p, seed):
    if int(p["fields"]) < 1:
        raise ConfigError(f"decompose needs fields >= 1, got {p['fields']!r}")
    sym = sym_mod.make_operator(p["operator"])
    shape = (int(p["shape"]),) * sym.n
    fields = (random_bandlimited(item_rng(seed, "decompose", i), shape,
                                 sym.dimV) for i in range(int(p["fields"])))
    rows = [[i, res.reconstructionError, res.constraintResidual,
             res.orthogonalityResidual, res.potentialResidual]
            for i, res in enumerate(helmholtz_splits(fields, sym))]
    tols = {"recon": p["tol_recon"], "constraint": p["tol_recon"],
            "ortho": p["tol_ortho"], "potential": p["tol_ortho"]}
    worst = {key: max([0.0] + [row[j] for row in rows])
             for j, key in enumerate(tols, 1)}
    checks = [Check(key, worst[key], tol, "<=", len(rows))
              for key, tol in tols.items()]
    cols = [("item", "exact"), ("reconstruction", "measured"),
            ("constraint", "measured"), ("orthogonality", "measured"),
            ("potential", "measured")]
    return checks, {"worst": worst}, {
        "residuals": {"columns": cols, "rows": rows}}


@_experiment("pairing",
             "sequence pairings against a test function, fitted decay",
             "int F(v_j, vt_j) phi dx", seq="ex61", indices=None, tol=1e-12,
             integrand="divcurl_dot", test="bump")
def _exp_pairing(p, seed):
    seq, cols = p["seq"], [("j", "exact"), ("pairing", "measured")]
    if seq in ("ex61", "ex62"):
        indices = tuple(p["indices"] or (2, 4, 8, 16, 32, 64))
    if seq == "ex61":
        spec = cex.make_spec(seq)
        pairings = [float(cex.make_sequence(spec, j)["F"].integral()[0])
                    for j in indices]
        devs = [abs(v - 1.0) for v in pairings]
        checks = [Check("deviation", max(devs), p["tol"], "<=", len(devs))]
        results = {"pairings": pairings, "limit": 1.0}
        rows = [[j, v, d] for j, v, d in zip(indices, pairings, devs)]
        cols.append(("deviation", "measured"))
    elif seq == "ex62":
        pairings = cex._ex62_masses(indices)
        verdict_m = cex.sequence_verdict(pairings, 0.0)["verdict"]
        checks = [Check("M_verdict", verdict_m, "converges", "==",
                        len(indices))]
        results = {"pairings": pairings, "verdict": verdict_m}
        rows = [[j, v] for j, v in zip(indices, pairings)]
    elif seq in FAMILIES:
        indices = tuple(p["indices"] or (8, 16, 32, 64, 128))
        phi = make_test_function(p["test"])
        rep = pairing_experiment(seq, p["integrand"], phi, indices,
                                 test_id=p["test"])
        checks = [Check("exponent_low", rep.exponent, -1.2, ">=",
                        len(rep.values)),
                  Check("exponent_high", rep.exponent, -0.8, "<=",
                        len(rep.values))]
        results = {"exponent": rep.exponent}
        rows = [[j, v] for j, v in zip(rep.indices, rep.values)]
    else:
        raise ConfigError(f"unknown sequence {seq!r}")
    return checks, results, {"pairing": {"columns": cols, "rows": rows}}


@_experiment("quasiaffine",
             "exact mean identity over random constraint-free fields",
             "mean of F(v0 + pert) equals F(v0)", operator="divcurl2",
             integrand="divcurl_dot", trials=100, tol=1e-8)
def _exp_quasiaffine(p, seed):
    sym = sym_mod.make_operator(p["operator"])
    F = INTEGRANDS[p["integrand"]]
    rep = quasiaffine_mean_test(F, sym, trials=int(p["trials"]),
                                seed=seed, tol=p["tol"])
    checks = [Check("worst_relative_deviation",
                    rep["worst_relative_deviation"], p["tol"], "<=",
                    len(rep["records"]))]
    rows = [[i, r["deviation"]] for i, r in enumerate(rep["records"])]
    return checks, {
        "verdict": rep["verdict"],
        "worst": rep["worst_relative_deviation"]}, {
        "trials": {"columns": [("trial", "exact"), ("deviation", "measured")],
                   "rows": rows}}


_EXPECTED_TABLE1 = (("(i)", ("fail", "fail", "fail")),
                    ("(ii)", ("pass", "fail", "fail")),
                    ("(iii)", ("pass", "fail", "pass")),
                    ("(iv)", ("pass", "pass", "fail")))


@_experiment("table1", "four-scenario verdict matrix (measures / L1 / hardy)",
             "check/cross matrix of the failure modes")
def _exp_table1(p, seed):
    rows_out = cex.table1()
    got = tuple((r.scenario, r.pattern) for r in rows_out)
    checks = [Check("pattern", got, _EXPECTED_TABLE1, "==", len(got))]
    rows = [[r.scenario, *r.pattern] for r in rows_out]
    cols = [("scenario", "exact"), ("measures", "measured"),
            ("L1", "measured"), ("hardy", "measured")]
    return checks, {"pattern": [list(g) for _, g in got]}, {
        "table1": {"columns": cols, "rows": rows}}


@_experiment("counterexample",
             "named witness families and their measured verdicts",
             "see describe(<case>) for the per-case formula", case="ex63",
             indices=None, overrides={})
def _exp_counterexample(p, seed):
    spec = cex.make_spec(p["case"], **p["overrides"])
    rep = cex.run_case(spec, p["indices"])
    checks = []  # ex61, ex62 and jac_case1 have no gate: inconclusive
    if p["case"] in ("ex63", "appendixOrlicz"):
        checks = [Check("divergent", rep["divergent"], True, "==",
                        len(rep["llogl_masses"]))]
        if p["case"] == "ex63":
            checks.append(Check("constraint_mass_finite",
                                math.isfinite(rep["constraint_mass"]), True,
                                "=="))
        levels = rep.get("levels", (10.0, 1e2, 1e3, 1e4, 1e5, 1e6))
        cols = [("level", "exact"), ("llogl_mass", "measured")]
        rows = [[lv, m] for lv, m in zip(levels, rep["llogl_masses"])]
    elif p["case"] == "jac_case2":
        if "max_rel_err" in rep:
            checks = [Check("max_rel_err", rep["max_rel_err"], 1e-12, "<=",
                            len(rep["k"]))]
            cols = [("k", "exact"), ("pairing", "measured"),
                    ("closed_form", "reference")]
            rows = [[k, v, c] for k, v, c in
                    zip(rep["k"], rep["pairings"], rep["closed_form"])]
        else:
            rel = abs(rep["fitted_exponent"] - rep["expected_exponent"])
            checks = [Check("exponent_error", rel,
                            0.15 * abs(rep["expected_exponent"]), "<=",
                            len(rep["k"]))]
            cols = [("k", "exact"), ("pairing", "measured")]
            rows = [[k, v] for k, v in zip(rep["k"], rep["pairings"])]
    elif p["case"] == "jac_case3":
        pi_n, ratios = math.pi ** spec.params["n"], rep["log_ratios"]
        checks = [Check("max_rel_err", rep["max_rel_err"], 1e-12, "<=",
                        len(rep["k"])),
                  Check("log_ratio_low", min(ratios), 0.5 * pi_n, ">=",
                        len(ratios)),
                  Check("log_ratio_high", max(ratios), 2.0 * pi_n, "<=",
                        len(ratios))]
        cols = [("k", "exact"), ("pairing", "measured"), ("exact", "reference")]
        rows = [[k, v, e] for k, v, e in
                zip(rep["k"], rep["pairings"], rep["exact"])]
    else:
        cols = [("key", "exact"), ("value", "measured")]
        rows = [[k, v] for k, v in sorted(rep.items())
                if isinstance(v, (int, float, str))]
    return checks, {k: v for k, v in rep.items()
                    if isinstance(v, (int, float, str, bool, list))}, {
        p["case"]: {"columns": cols, "rows": rows}}


@_experiment("truncate",
             "Lipschitz truncation ensemble: derivative + volume gates",
             "||D^k u||_inf <= C lambda, u = v off the bad set", cases=10, n=2,
             k=1, shape=128, lambdas=(0.5, 1.0, 2.0, 5.0, 10.0, 50.0))
def _exp_truncate(p, seed):
    rows, checked, worst_bound, chain_fails = [], 0, 0.0, 0
    vol_by_lam = {lam: [] for lam in p["lambdas"]}
    for i in range(int(p["cases"])):
        rng = item_rng(seed, "truncate", i)
        v = truncation_case(rng, int(p["shape"]), int(p["n"]))
        for res in lipschitz_truncations(v, p["lambdas"], k=int(p["k"])):
            # a level whose bad set covers the box reads nan, unchecked
            rows.append([i, res.lam, res.measuredDerivBound,
                         res.measuredVolumeConstant, int(np.sum(res.badSet))])
            if res.truncated is None:
                continue
            checked += 1
            worst_bound = max(worst_bound, res.measuredDerivBound)
            if math.isfinite(res.measuredVolumeConstant):
                vol_by_lam[res.lam].append(res.measuredVolumeConstant)
            chain_fails += not chain_mask_inclusion(v, res)
    # lambdas whose bad sets were empty throughout contribute no ratio
    maxima = [max(vs) for vs in vol_by_lam.values() if vs and max(vs) > 0]
    vol_ratio = max(maxima) / min(maxima) if maxima else 1.0
    checks = [Check("deriv_bound", worst_bound, C_IMPL, "<=", checked),
              Check("volume_ratio", vol_ratio, 8.0, "<=", len(maxima)),
              Check("chain_mask_failures", chain_fails, 0, "<=", checked)]
    cols = [("case", "exact"), ("lambda", "exact"),
            ("deriv_bound", "measured"), ("volume_const", "measured"),
            ("bad_cells", "measured")]
    results = {"worst_deriv_bound": worst_bound, "volume_ratio": vol_ratio,
               "chain_ok": chain_fails == 0}
    return checks, results, {"truncate": {"columns": cols, "rows": rows}}


@_experiment("hardy", "local Hardy norm of a registered test function",
             "int_{B_R} sup_t |f * rho_t| dx", test="bump", R=1.0, shape=256)
def _exp_hardy(p, seed):
    f = make_test_function(p["test"], shape=(int(p["shape"]),) * 2)
    val = local_hardy_norm(f, p["R"], MaximalConfig())
    checks = [Check("norm_finite", math.isfinite(val), True, "==")]
    return checks, {"hardy_norm": val}, {
        "hardy": {"columns": [("test", "exact"), ("R", "exact"),
                              ("norm", "measured")],
                  "rows": [[p["test"], p["R"], val]]}}


@_experiment("extension-identity",
             "surface Jacobian pairing as a half-space bulk integral",
             "int det(Du) phi = -int_0^T int det D_{t,x}(Phi,U1,U2)", cases=5,
             T=8.0, levels=((64, 16), (128, 32), (256, 64)), tol=1e-3)
def _exp_extension_identity(p, seed):
    rows, finals, unmonotone = [], [], 0
    for i in range(int(p["cases"])):
        errs = []
        for N, L in p["levels"]:
            rng = item_rng(seed, "extension-identity", f"{i}:{N}")
            u = random_bandlimited(rng, (int(N),) * 2, 2, cutoff=True)
            phi = random_bandlimited(rng, (int(N),) * 2, 1, cutoff=True)
            rep = pairing_identity(u, phi, T=p["T"], tLevels=int(L))
            errs.append(rep["relError"])
            rows.append([i, N, L, rep["lhs"], rep["rhs"], rep["relError"]])
        unmonotone += not all(a >= b for a, b in zip(errs, errs[1:]))
        finals.append(errs[-1])
    worst = max(finals, default=0.0)
    checks = [Check("final_rel_error", worst, p["tol"], "<=", len(finals)),
              Check("non_monotone_cases", unmonotone, 0, "<=", len(finals))]
    cols = [("case", "exact"), ("grid", "exact"), ("t_levels", "exact"),
            ("lhs", "measured"), ("rhs", "measured"), ("rel_error", "measured")]
    return checks, {"final_ok": not unmonotone and worst <= p["tol"]}, {
        "identity": {"columns": cols, "rows": rows}}


@_experiment("thmD", "ratio stability of the fractional determinant estimate",
             "|<F(u)-F(v),phi>| vs [phi]_alpha [u-v] ([u]+[v])^{s-1}",
             alpha=0.5, s=2, max_spread=4.0)
def _exp_thmD(p, seed):
    ens = thmD_ensemble(alpha=p["alpha"], s=int(p["s"]))
    cor = interpolation_ensemble(alpha=p["alpha"])
    checks = [Check(name, e["spread"], p["max_spread"], "<=",
                    len(e["records"]))
              for name, e in (("spread", ens), ("interpolation_spread", cor))]
    rows = [[r["m"], r["amplitude"], r["ratio"]] for r in ens["records"]]
    cols = [("m", "exact"), ("amplitude", "exact"), ("ratio", "measured")]
    return checks, {
        "spread": ens["spread"], "interpolation_spread": cor["spread"]}, {
        "ratios": {"columns": cols, "rows": rows}}


@_experiment("orlicz", "Young-function toolbox self-consistency checks",
             "Luxemburg, conjugate round trip, Delta_2, t^s bracket", p=2.0,
             tol_lux=1e-8)
def _exp_orlicz(p, seed):
    rng = item_rng(seed, "orlicz", 0)
    f = GridField(rng.normal(size=(64, 64, 1)), (2 * math.pi, 2 * math.pi))
    pw = p["p"]
    lux = luxemburg_norm(f, YoungFunction.power(pw))
    leb = lebesgue_norm(f, pw)
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
    checks = [Check("luxemburg_vs_lebesgue", abs(lux - leb),
                    p["tol_lux"] * max(1.0, leb)),
              Check("delta2_zygmund", d2a["delta2"], True, "=="),
              Check("delta2_exp", d2b["delta2"], False, "=="),
              Check("conjugate_round_trip", round_trip, 1e-5),
              Check("bracket_accepts_log_half", good["ok"], True, "=="),
              Check("bracket_rejects_log_two", not bad["ok"], True, "==")]
    # the ok column of a flag check holds the flag itself
    values = (abs(lux - leb), d2a["k"], d2b["k"], round_trip, 0.0, 0.0)
    rows = [[c.name, value, c.measured if c.relation == "==" else c.ok]
            for c, value in zip(checks, values)]
    cols = [("check", "exact"), ("value", "measured"), ("ok", "measured")]
    return checks, {"luxemburg_gap": abs(lux - leb),
                    "round_trip": round_trip}, {
        "orlicz": {"columns": cols, "rows": rows}}


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
    return {"experiments": sorted(REGISTRY),
            "operators": sorted(sym_mod.NAMED_OPERATORS),
            "integrands": sorted(INTEGRANDS),
            "sequences": sorted(cex.CASES) + sorted(FAMILIES)}


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


def _json_leaf(x):
    """json.dumps default: a NumPy scalar becomes its Python value; any other
    type json does not know raises TypeError."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


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
    entry = REGISTRY[config.experiment]
    p = _merge_params(entry["defaults"], config.params, config.experiment)
    t0 = time.time()
    checks, results, tables = entry["runner"](p, config.seed)
    wall = time.time() - t0
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        write_csv(out / f"{name}.csv", table, config.seed)
    report = RunReport(config=asdict(config), verdict=verdict_of(checks),
                       checks=tuple(checks), results=results, wall_clock=wall,
                       version=__version__, seed=config.seed)
    doc = asdict(report)
    doc["checks"] = [dict(asdict(c), ok=c.ok, margin=c.margin) for c in checks]
    doc["schema_version"] = SCHEMA_VERSION
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    (out / "report.json").write_text(
        json.dumps(doc, indent=2, default=_json_leaf))
    return report


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

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
        for key in {"seq", "case"} & set(REGISTRY[name]["defaults"]):
            sp.add_argument(f"--{key}", default=None)
    sub.add_parser("list", help="registry contents")
    dp = sub.add_parser("describe", help="describe a registered id")
    dp.add_argument("id")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "list":
        print(json.dumps(registry_listing(), indent=2))
        return 0
    try:
        if args.command == "describe":
            print(describe(args.id))
            return 0
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
            for key in ("seq", "case"):
                if getattr(args, key, None):
                    params[key] = getattr(args, key)
            config = ExperimentConfig(experiment=args.command, seed=args.seed,
                                      out=args.out, params=params)
        report = run(config)
    except Exception as e:  # any failure ends in the JSON error object
        print(json.dumps({"error": True, "message": str(e)}), file=sys.stderr)
        return 1
    print(json.dumps({"experiment": config.experiment,
                      "verdict": report.verdict,
                      "results": report.results},
                     indent=2, default=_json_leaf))
    return _EXIT[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
