"""The benchmark's workloads.

A workload is a fixed list of operations.  An operation is one experiment
run through the public entry point ``cclab.cli.run`` (the one ``cc-lab``
uses) or one direct call of a public function, and its output is checked
against references from ``checks``.  Every name in cclab is looked up when
an operation runs, so that a traced run sees the wrappers it installs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent

# Key of the white noise fed to the direct Helmholtz calls.  It is fixed, not
# drawn from --seed: the 64^2 calls are kept faults and must fail on every
# run, and the 65^2 controls see the same kind of input.
NOISE_KEY = 2007_00564


@dataclass(frozen=True)
class Fault:
    """A fault the program has today: why the operation fails, and the
    problems it gives, as regular expressions that must match the problems
    found one to one and in order.  Any other failure is not this fault."""
    why: str
    problems: tuple

    def matches(self, found):
        return len(found) == len(self.problems) and all(
            re.fullmatch(pattern, problem)
            for pattern, problem in zip(self.problems, found))


_NUM = r"[-+0-9.e]+"

# Even grids: the program's constraint, orthogonality and potential gates and
# the benchmark's real-space orthogonality fail; reconstruction holds.
NYQUIST_FAULT = Fault(
    "even grid: white noise puts energy on the Nyquist line, where helmholtz "
    "loses Hermitian symmetry (ROADMAP item 3)",
    (rf"constraint residual {_NUM} > 1e-10",
     rf"orthogonality residual {_NUM} > 1e-09",
     rf"potential residual {_NUM} > 1e-09",
     rf"orthogonality {_NUM} > 1e-09"))
# rhs and rel_error of each of the three identity rows; every other field
# parses.
CSV_FAULT = Fault(
    "cli._fmt writes repr() of NumPy scalars, so rhs and rel_error read "
    "np.float64(...)",
    tuple(rf"row {i} {col}='np\.float64\({_NUM}\)' is not a number"
          for i in range(3) for col in ("rhs", "rel_error")))

# Two experiments fail at their defaults on some seeds and not on others, so
# they cannot take --seed.  Each runs on a fixed seed where it fails every
# time, and counts as a kept fault.  Truncation on seeds 0-39: 4 and 8 exceed
# the derivative gate of 64, 6 and 7 raise "trivial truncation"; on seed 4
# case 6 of 10 does, so the benchmark runs the first 6 cases and all 36 rows
# are written.  quasiaffine on seeds 0-149: 21 and 125 raise; on seed 21 at
# trial 62, so a control runs the first 61.
TRUNCATE_SEED = 4
TRUNCATE_CASES = 6
TRUNCATE_FAULT = Fault(
    "seed 4: the worst derivative constant, 70.2 in case 6, is over the gate "
    "of 64",
    (r"verdict 'fail'", rf"derivative bound 7\.{_NUM} > 64"))
QUASIAFFINE_SEED = 21
QUASIAFFINE_TRIALS_BEFORE_FAULT = 61
QUASIAFFINE_FAULT = Fault(
    "seed 21: trial 62 of 100 raises ValueError: missing conjugate frequency "
    "(2, -2) for (-2, 2)",
    (r"ValueError: missing conjugate frequency \(2, -2\) for \(-2, 2\)",))


@dataclass(frozen=True)
class Operation:
    name: str
    call: object  # () -> list of problems; empty when the output is correct
    fault: Fault | None = None  # why and how it fails until mended

    def run(self):
        """The operation's problems.  An exception is one problem: its type
        and message."""
        try:
            return self.call()
        except Exception as exc:  # a crashing operation is a failed one
            return [f"{type(exc).__name__}: {exc}"]

    def expected(self, problems):
        """Whether these problems are none, or exactly the kept fault's."""
        return not problems or (self.fault is not None
                                and self.fault.matches(problems))


def import_cclab():
    """Import cclab from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cclab.cli
    where = Path(cclab.cli.__file__).resolve().parent.parent
    if where != src:
        raise ImportError(f"cclab was imported from {where}, not {src}")
    return cclab


def prepare():
    """Everything a run does before its first timed call: the imports, and
    one tiny call into each layer so that first-call costs (FFT and LAPACK
    set-up, quadrature) are paid here, as on every cc-lab invocation."""
    cc = import_cclab()
    field, norms = cc.field, cc.norms
    rng = np.random.default_rng(0)
    v = field.GridField(rng.standard_normal((8, 8, 4)), (2 * math.pi,) * 2)
    cc.decompose.helmholtz(v, cc.symbol.make_operator("divcurl2"))
    wave = field.TrigPoly.wave(2, (1, 0), "cos")
    field.trig_integral(field.trig_product(wave, wave))
    norms.luxemburg_norm(field.GridField(v.values[..., :1], v.period),
                         norms.YoungFunction.power(2))
    cc.counterexamples.truncated_llogl_masses(lambda t: t, (10.0,))
    return cc


# -- operations ---------------------------------------------------------------

def _experiment(cc, seed, out, name, experiment, params, check,
                fault=None):
    def call():
        outdir = out / name
        config = cc.cli.ExperimentConfig(experiment, seed=seed,
                                         out=str(outdir), params=params)
        report = cc.cli.run(config)
        problems = [] if report.verdict == "pass" else [
            f"verdict {report.verdict!r}"]
        return problems + check(report.results, outdir)
    return Operation(name, call, fault)


def _rows(outdir, table, count):
    """Rows of a table, and a problem if there are not exactly `count`:
    a check over fewer items than asked for has not checked them."""
    _, rows = checks.read_csv(outdir / f"{table}.csv")
    problems = [] if len(rows) == count else [
        f"{table}.csv has {len(rows)} rows, expected {count}"]
    return rows, problems


def _check_identity(results, outdir):
    rows, problems = _rows(outdir, "identity", 3)
    return problems + checks.identity_refinement(
        [(r[0], int(r[1]), checks.number(r[3]), checks.number(r[4]))
         for r in rows])


def _check_decompose(results, outdir):
    rows, problems = _rows(outdir, "residuals", DECOMPOSE_FIELDS)
    for col, tol in ((1, 1e-10), (2, 1e-10), (3, 1e-9), (4, 1e-9)):
        worst = max((float(r[col]) for r in rows), default=math.inf)
        if not worst <= tol:
            problems.append(f"residual column {col}: {worst:.3e} > {tol:g}")
    return problems


def _table1(cc):
    rows = cc.counterexamples.table1(shape_oscillation=TABLE1_SHAPE)
    return checks.table1([(r.scenario, *r.pattern) for r in rows])


def _check_truncate(results, outdir):
    rows, problems = _rows(outdir, "truncate", TRUNCATE_CASES * 6)
    worst = max((float(r[2]) for r in rows), default=math.inf)
    if not worst <= 64.0:
        problems.append(f"derivative bound {worst:.3e} > 64")
    return problems


def _check_hardy(results, outdir):
    rows, problems = _rows(outdir, "hardy", 1)
    norm = float(rows[0][2]) if rows else math.nan
    if not (math.isfinite(norm) and norm > 0):
        problems.append(f"Hardy norm {norm!r}")
    return problems


def _helmholtz(cc, operator, size):
    sym = cc.symbol.make_operator(operator)
    rng = np.random.default_rng([NOISE_KEY, size])
    v = cc.field.GridField(rng.standard_normal((size, size, sym.dimV)),
                           (2 * math.pi,) * 2)
    res = cc.decompose.helmholtz(v, sym)
    problems = [f"{name} residual {value:.3e} > {tol:g}" for name, value, tol in
                (("reconstruction", res.reconstructionError, 1e-10),
                 ("constraint", res.constraintResidual, 1e-10),
                 ("orthogonality", res.orthogonalityResidual, 1e-9),
                 ("potential", res.potentialResidual, 1e-9))
                if not value <= tol]
    return problems + checks.helmholtz_split(
        v.values, res.bPart.values, res.aStarPart.values, v.cell_volume)


def helmholtz_ops(cc):
    """Direct helmholtz calls on white noise: the 64^2 ones are kept faults,
    the 65^2 ones their controls."""
    return [Operation(f"helmholtz-{op}-{size}", partial(_helmholtz, cc, op, size),
                      NYQUIST_FAULT if size % 2 == 0 else None)
            for op in ("divcurl2", "div2", "curl_matrix_n")
            for size in (64, 65)]


# Sizes below the experiments' defaults, so that a round takes seconds and a
# run can time every operation several times: one identity case on 32^2,
# 64^2 and 128^2 (its error still falls to about 1e-9), 10 decompose fields,
# and table1 with the oscillation scenario on 256^2 instead of 512^2 (the
# paper's matrix still comes out; with fewer indices it does not).
IDENTITY_LEVELS = [[32, 8], [64, 16], [128, 32]]
DECOMPOSE_FIELDS = 10
TABLE1_SHAPE = 256


def _grid(cc, seed, out):
    exp = partial(_experiment, cc, seed, out)
    identity_csv = out / "extension-identity" / "identity.csv"
    return [
        exp("extension-identity", "extension-identity",
            {"cases": 1, "levels": IDENTITY_LEVELS}, _check_identity),
        Operation("identity-csv", partial(checks.non_numeric_fields,
                                          identity_csv), CSV_FAULT),
        exp("decompose", "decompose", {"fields": DECOMPOSE_FIELDS},
            _check_decompose),
        Operation("table1", partial(_table1, cc)),
        _experiment(cc, TRUNCATE_SEED, out, "truncate", "truncate",
                    {"cases": TRUNCATE_CASES}, _check_truncate,
                    TRUNCATE_FAULT),
        exp("hardy", "hardy", {}, _check_hardy),
    ] + helmholtz_ops(cc)


# jac_case3 builds the full trig_product to read one mode, so its time grows
# fast with k: 0.5 s at k = 8, 1.6 s at 12, 3.8 s at 16, 13 s at 24.
CASE3_KS = (8, 12)


def _check_case3(results, outdir):
    return checks.pairings(CASE3_KS, results["k"], results["pairings"],
                           checks.harmonic_pairing)


def _check_case2(results, outdir):
    return checks.pairings((8, 16, 32, 64, 128), results["k"],
                           results["pairings"], checks.power_pairing)


def _check_quasiaffine(trials):
    return lambda results, outdir: _rows(outdir, "trials", trials)[1]


def _check_thmD(results, outdir):
    rows, problems = _rows(outdir, "ratios", 5 * 3)
    ratios = [float(r[2]) for r in rows]
    if not (ratios and 0 < min(ratios) and max(ratios) <= 4.0 * min(ratios)):
        problems.append(f"ratio spread over 4: {ratios}")
    return problems


def _check_ex61(results, outdir):
    pairings = results["pairings"]
    problems = [] if len(pairings) == 6 else [f"{len(pairings)} pairings"]
    return problems + checks.unit_pairings(pairings)


def _trig(cc, seed, out):
    exp = partial(_experiment, cc, seed, out)
    return [
        exp("jac_case3", "counterexample",
            {"case": "jac_case3", "indices": list(CASE3_KS)}, _check_case3),
        exp("jac_case2", "counterexample", {"case": "jac_case2"},
            _check_case2),
        _experiment(cc, QUASIAFFINE_SEED, out, "quasiaffine", "quasiaffine",
                    {}, _check_quasiaffine(100), QUASIAFFINE_FAULT),
        _experiment(cc, QUASIAFFINE_SEED, out, "quasiaffine-61",
                    "quasiaffine", {"trials": QUASIAFFINE_TRIALS_BEFORE_FAULT},
                    _check_quasiaffine(QUASIAFFINE_TRIALS_BEFORE_FAULT)),
        exp("thmD", "thmD", {}, _check_thmD),
        exp("pairing-ex61", "pairing", {"seq": "ex61"}, _check_ex61),
    ]


def _check_masses(results, outdir):
    return checks.growing(results["llogl_masses"])


def _cubic(norms):
    return norms.YoungFunction(phi=lambda t: t ** 3 / 3.0,
                               dphi=lambda t: t ** 2, label="t^3/3")


def _conjugate(cc):
    ts = np.geomspace(1e-2, 1e2, 9)
    star = cc.norms.young_conjugate(_cubic(cc.norms))
    return checks.cubic_conjugate(ts, star(ts))


def _round_trip(cc):
    """The orlicz experiment's double conjugate, at 9 of its 41 points and
    without its outer Young-inequality sweep: that sweep alone takes 12 s,
    too long to time more than once in a run."""
    norms = cc.norms
    ts = np.geomspace(1e-2, 1e2, 9)
    star2 = norms.young_conjugate(norms.young_conjugate(_cubic(norms)),
                                  check_young=False)
    return checks.cubic(ts, star2(ts))


def _bracket(cc, log_power, holds):
    young = cc.norms.YoungFunction.zygmund(2, log_power)
    got = cc.norms.hardy_bracket_check(young, 2.0)["ok"]
    return [] if got == holds else [
        f"Hardy bracket for log power {log_power} is {got}, expected {holds}"]


def _luxemburg(cc, seed):
    values = np.random.default_rng([seed, 1]).standard_normal((64, 64))
    f = cc.field.GridField(values[..., None], (2 * math.pi,) * 2)
    got = cc.norms.luxemburg_norm(f, cc.norms.YoungFunction.power(2))
    return checks.l2_norm(values, f.cell_volume, got)


def _delta2(cc, young, holds):
    with np.errstate(over="ignore"):
        got = cc.norms.delta2_check(young(cc.norms.YoungFunction))["delta2"]
    return [] if got == holds else [f"delta2 is {got}, expected {holds}"]


def _young(cc, seed, out):
    exp = partial(_experiment, cc, seed, out)
    return [
        Operation("conjugate-t3", partial(_conjugate, cc)),
        Operation("conjugate-round-trip", partial(_round_trip, cc)),
        Operation("luxemburg-t2", partial(_luxemburg, cc, seed)),
        Operation("delta2-zygmund", partial(
            _delta2, cc, lambda Y: Y.zygmund(2, 1.0), True)),
        Operation("delta2-exp", partial(
            _delta2, cc, lambda Y: Y.exp_minus_one(), False)),
        Operation("bracket-log-half", partial(_bracket, cc, 0.5, True)),
        Operation("bracket-log-two", partial(_bracket, cc, 2.0, False)),
        exp("ex63", "counterexample", {"case": "ex63"}, _check_masses),
        exp("appendixOrlicz", "counterexample", {"case": "appendixOrlicz"},
            _check_masses),
    ]


WORKLOADS = {"grid": _grid, "trig": _trig, "young": _young}


def operations(cc, workload, seed, out):
    """The workload's operations, writing cc-lab outputs under `out`."""
    return WORKLOADS[workload](cc, seed, Path(out))
