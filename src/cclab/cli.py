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
from .quasiaffine import (INTEGRANDS, FAMILIES, TOL_MEAN,
                          quasiaffine_mean_test, pairing_experiment,
                          make_test_function)
from .norms import (DELTA2_TREND, YoungFunction, delta2_check,
                    hardy_bracket_check, luxemburg_norm, lebesgue_norm,
                    local_hardy_norm, young_conjugate)
from .truncate import C_IMPL, lipschitz_truncations, truncation_case
from .extension import pairing_identity, thmD_ensemble, interpolation_ensemble
from .params import (Check, ConfigError, checked_params, needs, real,
                     verdict_of)

__all__ = ["Check", "ExperimentConfig", "RunReport", "run", "main", "describe",
           "registry_listing", "item_rng", "verdict_of"]

SCHEMA_VERSION = 1
# gate bounds: constants, so that no config can loosen a gate
TOL_RECON = 1e-10  # decompose: reconstruction and constraint residuals
TOL_ORTHO = 1e-9  # decompose: orthogonality and potential residuals
TOL_IDENTITY = 1e-3  # extension-identity: relative error on the last rung
MAX_SPREAD = 4.0  # thmD: max/min ratio of either ensemble
TOL_LUX = 1e-8  # orlicz: |Luxemburg - Lebesgue norm| over max(1, Lebesgue)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out: str = "."
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_json(path, subcommand):
        doc = checked_params(
            "config", dict(schema_version=SCHEMA_VERSION, experiment="",
                           seed=0, out=".", params={}),
            json.loads(Path(path).read_text()),
            (needs("schema_version", "in", (SCHEMA_VERSION,)),
             (lambda d: d["experiment"], "is missing 'experiment'"),
             (lambda d: d["experiment"] == subcommand,
              "experiment {experiment!r} does not match subcommand "
              f"{subcommand!r}")), {})
        del doc["schema_version"]
        return ExperimentConfig(**doc)


@dataclass(frozen=True)
class RunReport:
    config: dict
    verdict: str
    checks: tuple
    results: dict
    wall_clock: float
    version: str
    seed: int


def item_rng(seed, experiment, index):
    """Counter-based deterministic generator keyed by (seed, id, item)."""
    key = f"{seed}:{experiment}:{index}".encode()
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _counts(v):
    """Whether v is a non-empty list of ints >= 1."""
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(
        type(x) is int and x >= 1 for x in v)


# None stands for the family's own indices; a run over none checks nothing
_INDICES = (lambda p: p["indices"] is None or _counts(p["indices"]),
            "needs a non-empty indices list of ints >= 1, got {indices!r}")


def _builds_operator(p):
    """Whether make_operator builds p's operator string.  p["sym"] keeps the
    operator for the rules after this one, or else the refusal's message."""
    try:
        p["sym"] = sym_mod.make_operator(p["operator"])
    except (KeyError, ValueError) as e:
        p["sym"] = e.args[0]
        return False
    return True


_OPERATOR = (_builds_operator, "{sym}")


REGISTRY = {}
_SEQUENCES = sorted(name for name, w in cex.WITNESSES.items()
                    if w.pairings) + sorted(FAMILIES)


def _experiment(name, summary, anchor, rules, routes, **defaults):
    """Register runner(p, seed) -> (checks, results, tables) and its params:
    their defaults, rules and routes, as params.checked_params reads them."""
    def register(runner):
        REGISTRY[name] = {"runner": runner, "summary": summary,
                          "anchor": anchor, "defaults": defaults,
                          "rules": rules, "routes": routes}
        return runner
    return register


@_experiment("check-rank", "certify constant rank of a named operator symbol",
             "rank A(xi) constant on the unit sphere",
             (_OPERATOR, needs("samples", ">=", 1)), {},
             operator="divcurl2", samples=400)
def _exp_check_rank(p, seed):
    report = sym_mod.constant_rank_check(p["sym"], samples=p["samples"])
    checks = [Check("constant_rank", report.is_constant, True, "==",
                    report.samples)]
    return checks, {"rank": report.rank, "is_constant": report.is_constant}, {
        "rank": cex._table([("operator", "exact"), ("rank", "measured"),
                            ("constant", "measured")], [p["operator"]],
                           [report.rank], [report.is_constant])}


@_experiment("decompose",
             "frequency-space splitting v = b + A* w with residuals",
             "bPart^ = P(xi) v^, w^ = (A A^T)^+ i^l A v^",
             (_OPERATOR, needs("fields", ">=", 1), needs("shape", ">=", 2)),
             {},
             operator="divcurl2", fields=50, shape=64)
def _exp_decompose(p, seed):
    sym = p["sym"]
    shape = (p["shape"],) * sym.n
    fields = (random_bandlimited(item_rng(seed, "decompose", i), shape,
                                 sym.dimV) for i in range(p["fields"]))
    rows = [[i, res.reconstructionError, res.constraintResidual,
             res.orthogonalityResidual, res.potentialResidual]
            for i, res in enumerate(helmholtz_splits(fields, sym))]
    tols = {"recon": TOL_RECON, "constraint": TOL_RECON,
            "ortho": TOL_ORTHO, "potential": TOL_ORTHO}
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
             "int F(v_j, vt_j) phi dx",
             (needs("seq", "in", _SEQUENCES), _INDICES,
              needs("integrand", "in", sorted(INTEGRANDS))),
             # the witness gates have no integrand or test
             {"seq": dict.fromkeys(("ex61", "ex62"), ("integrand", "test"))},
             seq="ex61", indices=None, integrand="divcurl_dot", test="bump")
def _exp_pairing(p, seed):
    seq, indices = p["seq"], p["indices"]
    if seq in cex.WITNESSES:
        witness, spec = cex.WITNESSES[seq], cex.make_spec(seq)
        rep = witness.pairings(spec, indices or witness.indices)
        checks, table = witness.gate(spec, rep)
        return checks, {
            k: v for k, v in rep.items() if k != "j"}, {"pairing": table}
    phi = make_test_function(p["test"])
    rep = pairing_experiment(seq, p["integrand"], phi,
                             indices or (8, 16, 32, 64, 128))
    items = len(rep.values)
    checks = [Check("exponent_low", rep.exponent, -1.2, ">=", items),
              Check("exponent_high", rep.exponent, -0.8, "<=", items)]
    return checks, {"exponent": rep.exponent}, {"pairing": cex._table(
        [("j", "exact"), ("pairing", "measured")], rep.indices, rep.values)}


@_experiment("quasiaffine",
             "exact mean identity over random constraint-free fields",
             "mean of F(v0 + pert) equals F(v0)",
             (needs("integrand", "in", sorted(INTEGRANDS)), _OPERATOR,
              (lambda p: INTEGRANDS[p["integrand"]].dimV == p["sym"].dimV,
               lambda p: f"integrand {p['integrand']} acts on R^"
               f"{INTEGRANDS[p['integrand']].dimV} but operator "
               f"{p['operator']} on R^{p['sym'].dimV}"),
              needs("trials", ">=", 1)), {},
             operator="divcurl2", integrand="divcurl_dot", trials=100)
def _exp_quasiaffine(p, seed):
    rep = quasiaffine_mean_test(INTEGRANDS[p["integrand"]], p["sym"],
                                trials=p["trials"], seed=seed)
    worst = rep["worst_relative_deviation"]
    devs = [r["deviation"] for r in rep["records"]]
    checks = [Check("worst_relative_deviation", worst, TOL_MEAN, "<=",
                    len(devs))]
    return checks, {"verdict": rep["verdict"], "worst": worst}, {
        "trials": cex._table([("trial", "exact"), ("deviation", "measured")],
                             range(len(devs)), devs)}


_EXPECTED_TABLE1 = (("(i)", ("fail", "fail", "fail")),
                    ("(ii)", ("pass", "fail", "fail")),
                    ("(iii)", ("pass", "fail", "pass")),
                    ("(iv)", ("pass", "pass", "fail")))


@_experiment("table1", "four-scenario verdict matrix (measures / L1 / hardy)",
             "check/cross matrix of the failure modes", (), {})
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
             "see describe(<case>) for the per-case formula",
             (_INDICES,
              # jac_case3 divides its pairing by log k
              (lambda p: p["case"] != "jac_case3" or p["indices"] is None
               or min(p["indices"]) >= 2,
               "needs indices >= 2 for jac_case3, got {indices!r}")),
             {"case": {case: ("indices",) for case, w in cex.WITNESSES.items()
                       if w.indices is None}},
             case="ex63", indices=None, overrides={})
def _exp_counterexample(p, seed):
    spec = cex.make_spec(p["case"], **p["overrides"])
    rep = cex.run_case(spec, p["indices"])
    checks, table = cex.WITNESSES[spec.case].gate(spec, rep)
    return checks, {
        k: v for k, v in rep.items()
        if isinstance(v, (int, float, str, bool, list))}, {spec.case: table}


@_experiment("truncate",
             "Lipschitz truncation ensemble: derivative + volume gates",
             "||D^k u||_inf <= C lambda, u = v off the bad set",
             # np.gradient's one-sided stencils need 3 points an axis
             (needs("cases", ">=", 1), needs("shape", ">=", 3),
              needs("n", "in", (1, 2)), needs("k", "in", (1, 2)),
              (lambda p: len(p["lambdas"]) > 0
               and all(real(x) and x > 0 for x in p["lambdas"]),
               "needs a non-empty lambdas list of positive numbers, got "
               "{lambdas!r}")), {},
             cases=10, n=2, k=1, shape=128,
             lambdas=(0.5, 1.0, 2.0, 5.0, 10.0, 50.0))
def _exp_truncate(p, seed):
    rows, checked, worst_bound, chain_fails = [], 0, 0.0, 0
    vol_by_lam = {lam: [] for lam in p["lambdas"]}
    for i in range(p["cases"]):
        rng = item_rng(seed, "truncate", i)
        v = truncation_case(rng, p["shape"], p["n"])
        for res in lipschitz_truncations(v, p["lambdas"], k=p["k"]):
            # a level whose bad set covers the box reads nan, unchecked
            rows.append([i, res.lam, res.measuredDerivBound,
                         res.measuredVolumeConstant, int(np.sum(res.badSet))])
            if res.truncated is None:
                continue
            checked += 1
            worst_bound = max(worst_bound, res.measuredDerivBound)
            if math.isfinite(res.measuredVolumeConstant):
                vol_by_lam[res.lam].append(res.measuredVolumeConstant)
            chain_fails += not res.chainOk
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
             "int_{B_R} sup_t |f * rho_t| dx",
             ((lambda p: 0 < p["R"] < math.inf,
               "ball radius R must be positive and finite, got {R!r}"),
              needs("shape", ">=", 2)), {}, test="bump", R=1.0, shape=256)
def _exp_hardy(p, seed):
    f = make_test_function(p["test"], shape=(p["shape"],) * 2)
    val = local_hardy_norm(f, p["R"])
    checks = [Check("norm_finite", math.isfinite(val), True, "==")]
    return checks, {"hardy_norm": val}, {"hardy": cex._table(
        [("test", "exact"), ("R", "exact"), ("norm", "measured")],
        [p["test"]], [p["R"]], [val])}


@_experiment("extension-identity",
             "surface Jacobian pairing as a half-space bulk integral",
             "int det(Du) phi = -int_0^T int det D_{t,x}(Phi,U1,U2)",
             (needs("cases", ">=", 1),
              (lambda p: 0 < p["T"] < math.inf,
               "needs a positive finite T, got {T!r}"),
              # a grid side N needs two points
              (lambda p: len(p["levels"]) > 0 and all(
                  _counts(row) and len(row) == 2 and row[0] >= 2
                  for row in p["levels"]),
               "needs a non-empty levels list of (N, L) pairs of ints, "
               "N >= 2 and L >= 1, got {levels!r}")), {},
             cases=5, T=8.0, levels=((64, 16), (128, 32), (256, 64)))
def _exp_extension_identity(p, seed):
    rows, finals, unmonotone = [], [], 0
    for i in range(p["cases"]):
        errs = []
        for N, L in p["levels"]:
            rng = item_rng(seed, "extension-identity", f"{i}:{N}")
            u = random_bandlimited(rng, (N,) * 2, 2, cutoff=True)
            phi = random_bandlimited(rng, (N,) * 2, 1, cutoff=True)
            rep = pairing_identity(u, phi, T=p["T"], tLevels=L)
            errs.append(rep["relError"])
            rows.append([i, N, L, rep["lhs"], rep["rhs"], rep["relError"]])
        unmonotone += not all(a >= b for a, b in zip(errs, errs[1:]))
        finals.append(errs[-1])
    worst = max(finals)
    checks = [Check("final_rel_error", worst, TOL_IDENTITY, "<=", len(finals)),
              Check("non_monotone_cases", unmonotone, 0, "<=", len(finals))]
    cols = [("case", "exact"), ("grid", "exact"), ("t_levels", "exact"),
            ("lhs", "measured"), ("rhs", "measured"), ("rel_error", "measured")]
    return checks, {"final_ok": all(c.ok for c in checks)}, {
        "identity": {"columns": cols, "rows": rows}}


@_experiment("thmD", "ratio stability of the fractional determinant estimate",
             "|<F(u)-F(v),phi>| vs [phi]_alpha [u-v] ([u]+[v])^{s-1}",
             ((lambda p: 0 < p["alpha"] <= 1,
               "needs 0 < alpha <= 1, got {alpha!r}"),), {},
             alpha=0.5)
def _exp_thmD(p, seed):
    ens = thmD_ensemble(alpha=p["alpha"])
    cor = interpolation_ensemble(alpha=p["alpha"])
    checks = [Check(name, e["spread"], MAX_SPREAD, "<=", len(e["records"]))
              for name, e in (("spread", ens), ("interpolation_spread", cor))]
    cols = [("m", "exact"), ("amplitude", "exact"), ("ratio", "measured")]
    return checks, {
        "spread": ens["spread"], "interpolation_spread": cor["spread"]}, {
        "ratios": cex._table(cols, *([r[key] for r in ens["records"]]
                                     for key, _ in cols))}


@_experiment("orlicz", "Young-function toolbox self-consistency checks",
             "Luxemburg, conjugate round trip, Delta_2, t^s bracket",
             (needs("p", ">=", 1),), {}, p=2.0)
def _exp_orlicz(p, seed):
    with np.errstate(over="ignore"):
        d2a = delta2_check(YoungFunction.zygmund(p["p"], 1.0))
        d2b = delta2_check(YoungFunction.exp_minus_one())
    if d2a["delta2"] is None:
        raise ConfigError(f"orlicz p={p['p']!r} leaves {d2a['finite']} finite "
                          f"Delta_2 ratios, fewer than {DELTA2_TREND}")
    rng = item_rng(seed, "orlicz", 0)
    f = GridField(rng.normal(size=(64, 64, 1)), (2 * math.pi, 2 * math.pi))
    lux = luxemburg_norm(f, YoungFunction.power(p["p"]))
    leb = lebesgue_norm(f, p["p"])
    cubic = YoungFunction(phi=lambda t: t**3 / 3.0, dphi=lambda t: t**2,
                          label="t^3/3")
    star2 = young_conjugate(young_conjugate(cubic))
    ts = np.geomspace(1e-2, 1e2, 41)
    round_trip = float(np.max(np.abs(star2(ts) - cubic(ts))
                              / np.maximum(cubic(ts), 1e-300)))
    good = hardy_bracket_check(YoungFunction.zygmund(2, 0.5), 2.0)
    bad = hardy_bracket_check(YoungFunction.zygmund(2, 2.0), 2.0)
    checks = [Check("luxemburg_vs_lebesgue", abs(lux - leb),
                    TOL_LUX * max(1.0, leb)),
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


def registry_listing():
    return {"experiments": sorted(REGISTRY),
            "operators": sorted(sym_mod.NAMED_OPERATORS),
            "integrands": sorted(INTEGRANDS),
            "sequences": _SEQUENCES,
            "cases": sorted(cex.CASES)}


def describe(name):
    if name in REGISTRY:
        entry = REGISTRY[name]
        return f"{name}: {entry['summary']}\n  anchor: {entry['anchor']}"
    if name in cex.WITNESSES:
        return (f"{name}: witness family\n"
                f"  anchor: {cex.WITNESSES[name].anchor}")
    pool = list(REGISTRY) + list(cex.WITNESSES)
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
    p = checked_params(config.experiment, entry["defaults"], config.params,
                       entry["rules"], entry["routes"])
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
        for key in REGISTRY[name]["routes"]:  # --seq, --case
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
            config = ExperimentConfig.from_json(args.config, args.command)
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
            for key in REGISTRY[args.command]["routes"]:
                if getattr(args, key):
                    params[key] = getattr(args, key)
            config = ExperimentConfig(experiment=args.command, seed=args.seed,
                                      out=args.out, params=params)
        report = run(config)
    except Exception as e:  # any failure ends in the JSON error object
        # str() of a KeyError (an unknown case or id) is its quoted message
        message = e.args[0] if isinstance(e, KeyError) and e.args else str(e)
        print(json.dumps({"error": True, "message": str(message)}),
              file=sys.stderr)
        return 1
    print(json.dumps({"experiment": config.experiment,
                      "verdict": report.verdict,
                      "results": report.results},
                     indent=2, default=_json_leaf))
    return _EXIT[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
