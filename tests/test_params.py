"""The params that each route accepts are read by the run itself, and an
edge value of any of them ends in a verdict with its tables or in the JSON
error that names it."""

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from cclab import cli, params
from cclab import counterexamples as cex

# route -> (experiment, a small base config): every experiment, every
# pairing --seq, every counterexample --case and jac_case2's grid mode
ROUTES = {
    "check-rank": ("check-rank", {"samples": 20}),
    "decompose": ("decompose", {"fields": 1, "shape": 8}),
    "quasiaffine": ("quasiaffine", {"trials": 2}),
    "table1": ("table1", {}),
    "truncate": ("truncate", {"cases": 1, "shape": 16, "lambdas": [1.0]}),
    "hardy": ("hardy", {"shape": 32}),
    "extension-identity": ("extension-identity",
                           {"cases": 1, "levels": [[16, 4]]}),
    "thmD": ("thmD", {}),
    "orlicz": ("orlicz", {}),
    "pairing ex61": ("pairing", {"seq": "ex61", "indices": [2, 4]}),
    "pairing ex62": ("pairing", {"seq": "ex62", "indices": [2, 4]}),
    "pairing oscillation": ("pairing", {"seq": "oscillation",
                                        "indices": [8, 16]}),
    "pairing oscillation_pure": ("pairing", {"seq": "oscillation_pure",
                                             "indices": [8, 16]}),
    "counterexample ex61": ("counterexample", {
        "case": "ex61", "indices": [2, 4], "overrides": {"shape": 32}}),
    "counterexample ex62": ("counterexample", {
        "case": "ex62", "indices": [2, 4], "overrides": {"shape": 32}}),
    "counterexample ex63": ("counterexample", {"case": "ex63",
                                               "overrides": {}}),
    "counterexample jac_case1": ("counterexample", {
        "case": "jac_case1", "indices": [4, 8], "overrides": {"shape": 32}}),
    "counterexample jac_case2": ("counterexample", {
        "case": "jac_case2", "indices": [8, 16], "overrides": {}}),
    "counterexample jac_case2 grid": ("counterexample", {
        "case": "jac_case2", "indices": [8, 16],
        "overrides": {"mode": "grid", "shape": 32}}),
    "counterexample jac_case3": ("counterexample", {
        "case": "jac_case3", "indices": [8], "overrides": {}}),
    "counterexample appendixOrlicz": ("counterexample", {
        "case": "appendixOrlicz", "overrides": {}}),
}
# a route param's value chooses the route, so it is not varied here
ROUTE_PARAMS = {"seq", "case", "mode", "overrides"}


def _unread(routes, merged, key):
    return any(key in unread.get(merged[route], ())
               for route, unread in routes.items())


def accepted(experiment, base):
    """(owner, key, default) of each param that base's route accepts."""
    entry = cli.REGISTRY[experiment]
    merged = {**entry["defaults"], **base}
    found = [(experiment, key, default)
             for key, default in entry["defaults"].items()
             if not _unread(entry["routes"], merged, key)]
    if experiment == "counterexample":
        witness = cex.WITNESSES[base["case"]]
        merged = {**witness.defaults, **base["overrides"]}
        found += [(base["case"], key, default)
                  for key, default in witness.defaults.items()
                  if not _unread(witness.routes, merged, key)]
    return [entry for entry in found if entry[1] not in ROUTE_PARAMS]


def with_param(experiment, base, owner, key, value):
    """base with key of owner (the experiment or its witness) set."""
    if owner == experiment:
        return {**base, key: value}
    return {**base, "overrides": {**base["overrides"], key: value}}


# what a rule builds into the checked params for the runner, and the param
# it is built from: cli._OPERATOR builds p["sym"] from p["operator"]
BUILDS = {"sym": "operator"}


class Reads(dict):
    """A params dict that records each key read through [] or get; a read
    of a rule's build (BUILDS) is a read of the param it was built from."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(BUILDS.get(key, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(BUILDS.get(key, key))
        return super().get(key, default)


@contextlib.contextmanager
def recorded_reads():
    """owner -> Reads of the checked params that cli.run and make_spec hand
    to the run: the rules have read them before, so only the runner, the
    build, the run and the gate are recorded."""
    log = {}

    def recording(owner, *args):
        log[owner] = Reads(params.checked_params(owner, *args))
        return log[owner]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "checked_params", recording)
        mp.setattr(cex, "checked_params", recording)
        yield log


def run_main(experiment, config, out):
    """(exit code, stdout, stderr) of cc-lab with config as --param flags."""
    argv = [experiment, "--out", str(out)]
    for key, value in config.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


ACCEPTED = [(route, owner, key, default)
            for route, (experiment, base) in ROUTES.items()
            for owner, key, default in accepted(experiment, base)]


def test_routes_cover_every_experiment_sequence_and_case():
    listing = cli.registry_listing()
    experiments = {experiment for experiment, _ in ROUTES.values()}
    assert experiments == set(listing["experiments"])
    assert {base["seq"] for experiment, base in ROUTES.values()
            if experiment == "pairing"} == set(listing["sequences"])
    assert {base["case"] for experiment, base in ROUTES.values()
            if experiment == "counterexample"} == set(listing["cases"])


# every param that a config can set, as (owner, key): an experiment's own
# and a witness family's overrides.  A new knob shows up here as a reviewed
# diff; a gate bound is a constant, never a param.
CENSUS = sorted(
    [("check-rank", key) for key in ("operator", "samples")]
    + [("decompose", key) for key in ("fields", "operator", "shape")]
    + [("pairing", key) for key in ("indices", "integrand", "seq", "test")]
    + [("quasiaffine", key) for key in ("integrand", "operator", "trials")]
    + [("counterexample", key) for key in ("case", "indices", "overrides")]
    + [("truncate", key) for key in ("cases", "k", "lambdas", "n", "shape")]
    + [("hardy", key) for key in ("R", "shape", "test")]
    + [("extension-identity", key) for key in ("T", "cases", "levels")]
    + [("thmD", "alpha"), ("orlicz", "p")]
    + [("ex61", key) for key in ("e", "period", "shape")]
    + [("ex62", key) for key in ("period", "shape")]
    + [("ex63", key) for key in ("beta", "gamma", "r")]
    + [("jac_case1", key) for key in ("alpha", "beta", "gamma", "p", "shape")]
    + [("jac_case2", key)
       for key in ("alpha", "beta", "beta1", "mode", "shape")]
    + [("jac_case3", "alpha"), ("appendixOrlicz", "c")])


def test_param_census():
    """The settable params are exactly the census: 28 of experiments and 20
    of witness families."""
    found = sorted([(name, key) for name, entry in cli.REGISTRY.items()
                    for key in entry["defaults"]]
                   + [(case, key) for case, witness in cex.WITNESSES.items()
                      for key in witness.defaults])
    assert len(CENSUS) == 48 and found == CENSUS


@pytest.mark.parametrize("route, owner, key, default", ACCEPTED,
                         ids=[f"{r}:{k}" for r, _, k, _ in ACCEPTED])
def test_route_reads_every_param_it_accepts(tmp_path, route, owner, key,
                                            default):
    """A param that a route accepts, set to its default on the small base
    config, is read by the run: a param that nothing but a rule reads would
    pass without checking what it names."""
    experiment, base = ROUTES[route]
    with recorded_reads() as reads:
        code, out, err = run_main(
            experiment, with_param(experiment, base, owner, key, default),
            tmp_path)
    assert err == "" and json.loads(out)["verdict"] in cli._EXIT
    assert key in reads[owner].read


def _wrong_kind(default):
    """A value of another JSON kind than the default's."""
    return 1 if isinstance(default, str) else "x"


def _above(value, base):
    """Whether value asks for more work than the base config's value."""
    if params.real(value) and params.real(base):
        return value > base
    return (isinstance(value, (list, tuple)) and isinstance(base, list)
            and len(value) > len(base))


def _base_value(experiment, base, owner, key):
    return base.get(key) if owner == experiment else \
        base["overrides"].get(key)


EDGES = [(route, owner, key, value)
         for route, owner, key, default in ACCEPTED
         for value in (0, -1, 1, 2, [], [1], _wrong_kind(default), default)
         if not _above(value, _base_value(*ROUTES[route], owner, key))]


@settings(max_examples=150, deadline=None)
@given(draw=st.sampled_from(EDGES))
def test_edge_values_end_in_a_verdict_or_a_named_error(draw,
                                                       tmp_path_factory):
    """One param at an edge value: a verdict with its tables from a run that
    read the param, or the JSON error (exit 1, no table) naming it; never
    a traceback or a message that names no param.  Each example stays on
    the base config's sizes and under a second."""
    route, owner, key, value = draw
    experiment, base = ROUTES[route]
    out = tmp_path_factory.mktemp("edge")
    start = time.perf_counter()
    with recorded_reads() as reads:
        code, stdout, stderr = run_main(
            experiment, with_param(experiment, base, owner, key, value), out)
    assert time.perf_counter() - start < 1.0
    if stdout:
        assert stderr == "" and json.loads(stdout)["verdict"] in cli._EXIT
        assert list(out.glob("*.csv")) and key in reads[owner].read
    else:
        message = json.loads(stderr)["message"]
        assert code == 1 and list(out.iterdir()) == []
        assert re.search(rf"\b{re.escape(key)}\b", message), message
