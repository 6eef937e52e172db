"""Tests of the benchmark itself: every check accepts the right answer and
rejects a wrong one, and the kept faults still fail while their controls
pass.  Run from the repository root:  python3 -m pytest bench
"""

import math

import numpy as np
import pytest

import checks
import tracing
import workloads


@pytest.fixture(scope="module")
def cc():
    return workloads.import_cclab()


def test_harmonic_pairing_is_exact_sum():
    assert checks.harmonic_pairing(1) == math.pi ** 2 / 2
    assert checks.harmonic_pairing(2) == math.pi ** 2 * (5 / 6)


def test_jac_case3_rejects_pairing_off_by_1e9():
    ks = (8, 16, 24)
    exact = [checks.harmonic_pairing(k) for k in ks]
    ref = checks.harmonic_pairing
    assert checks.pairings(ks, list(ks), exact, ref) == []
    off = list(exact)
    off[1] += 1e-9
    assert checks.pairings(ks, list(ks), off, ref)
    assert checks.pairings(ks, [8, 16], exact[:2], ref)


def test_jac_case2_rejects_wrong_exponent():
    ks = (8, 16, 32)
    exact = [math.pi ** 2 * k ** 0.25 for k in ks]
    ref = checks.power_pairing
    assert checks.pairings(ks, list(ks), exact, ref) == []
    assert checks.pairings(ks, list(ks), [math.pi ** 2 * k ** 0.26
                                          for k in ks], ref)


def test_unit_pairings_reject_drift():
    assert checks.unit_pairings([1.0] * 6) == []
    assert checks.unit_pairings([1.0] * 5 + [1.0 + 1e-9])
    assert checks.unit_pairings([])


def test_table1_rejects_swapped_row():
    rows = [list(r) for r in checks.TABLE1]
    assert checks.table1(rows) == []
    rows[1][1:], rows[2][1:] = rows[2][1:], rows[1][1:]
    assert checks.table1(rows)
    assert checks.table1([list(r) for r in checks.TABLE1][::-1])


def test_identity_rejects_error_2e3_and_growth():
    def rows(errors):
        return [(0, n, 1.0, 1.0 + e) for n, e in zip((64, 128, 256), errors)]
    assert checks.identity_refinement(rows((1e-4, 1e-8, 1e-14))) == []
    assert checks.identity_refinement(rows((1e-2, 5e-3, 2e-3)))
    assert checks.identity_refinement(rows((1e-8, 1e-4, 1e-6)))
    assert checks.identity_refinement([])


def test_csv_rejects_numpy_scalar_repr(tmp_path):
    head = "# schema_version=1\n# seed=0\n# column a tag=measured\na,b\n"
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(head + "1,-0.5\n2,1e-09\n")
    bad.write_text(head + "1,-0.5\n2,np.float64(1e-09)\n")
    assert checks.non_numeric_fields(good) == []
    assert checks.non_numeric_fields(bad)
    assert checks.number("np.float64(-0.48)") == -0.48


def test_helmholtz_split_rejects_overlapping_parts():
    v = np.random.default_rng(0).standard_normal((9, 9, 2))
    assert checks.helmholtz_split(v, v, np.zeros_like(v), 0.1) == []
    assert checks.helmholtz_split(v, v / 2, v / 2, 0.1)
    assert checks.helmholtz_split(v, v, 1e-3 * v, 0.1)


def test_young_references_reject_wrong_values():
    ts = np.geomspace(1e-2, 1e2, 9)
    exact = (2 / 3) * ts ** 1.5
    assert checks.cubic_conjugate(ts, exact) == []
    assert checks.cubic_conjugate(ts, exact * (1 + 1e-6))
    assert checks.cubic(ts, ts ** 3 / 3) == []
    assert checks.cubic(ts, ts ** 3 / 3 * (1 + 1e-6))
    values = np.random.default_rng(0).standard_normal((8, 8))
    l2 = float(np.sqrt(np.sum(values ** 2) * 0.5))
    assert checks.l2_norm(values, 0.5, l2) == []
    assert checks.l2_norm(values, 0.5, l2 * (1 + 1e-6))
    assert checks.growing([1.0, 2.0, 3.0]) == []
    assert checks.growing([1.0, 2.0, 2.0])


def _op(cc, workload, name, out):
    op, = [op for op in workloads.operations(cc, workload, 0, out)
           if op.name == name]
    return op


def test_kept_faults_fail_and_odd_grid_controls_pass(cc):
    ops = workloads.helmholtz_ops(cc)
    assert sum(1 for op in ops if op.fault) == 3
    for op in ops:
        problems = op.run()
        if op.fault:
            assert problems and op.fault.matches(problems), (op.name, problems)
        else:
            assert problems == [], (op.name, problems)


def test_identity_csv_kept_fault(cc, tmp_path):
    identity = _op(cc, "grid", "extension-identity", tmp_path)
    csv = _op(cc, "grid", "identity-csv", tmp_path)
    assert identity.run() == []
    problems = csv.run()
    assert problems and csv.fault.matches(problems), problems


def test_truncate_kept_fault(cc, tmp_path):
    op = _op(cc, "grid", "truncate", tmp_path)
    problems = op.run()
    assert problems and op.fault.matches(problems), problems


def test_quasiaffine_kept_fault_and_its_control(cc, tmp_path):
    op = _op(cc, "trig", "quasiaffine", tmp_path)
    problems = op.run()
    assert problems and op.fault.matches(problems), problems
    assert _op(cc, "trig", "quasiaffine-61", tmp_path).run() == []


def test_faults_reject_other_failures():
    """A kept fault that fails another way, earlier, or with more or fewer
    problems is not the kept fault, so the run is not correct."""
    nyquist = ["constraint residual 4.655e-02 > 1e-10",
               "orthogonality residual 4.119e-03 > 1e-09",
               "potential residual 1.032e-01 > 1e-09",
               "orthogonality 4.119e-03 > 1e-09"]
    assert workloads.NYQUIST_FAULT.matches(nyquist)
    assert not workloads.NYQUIST_FAULT.matches(
        ["reconstruction residual 1.0e-03 > 1e-10"] + nyquist)
    assert not workloads.NYQUIST_FAULT.matches(nyquist[:3])
    truncate = ["verdict 'fail'", "derivative bound 7.020e+01 > 64"]
    assert workloads.TRUNCATE_FAULT.matches(truncate)
    assert not workloads.TRUNCATE_FAULT.matches(
        ["verdict 'fail'", "truncate.csv has 12 rows, expected 36"]
        + truncate[1:])
    assert not workloads.TRUNCATE_FAULT.matches(
        ["ValueError: trivial truncation: bad set covers the whole box"])
    assert not workloads.TRUNCATE_FAULT.matches(
        ["verdict 'fail'", "derivative bound inf > 64"])
    quasi = workloads.QUASIAFFINE_FAULT
    assert quasi.matches(["ValueError: missing conjugate frequency (2, -2) "
                          "for (-2, 2)"])
    assert not quasi.matches(["ValueError: missing conjugate frequency "
                              "(1, 0) for (-1, 0)"])
    assert not quasi.matches(["TypeError: 'int' object is not iterable"])
    csv = [f"row {i} {col}='np.float64(-0.5)' is not a number"
           for i in range(3) for col in ("rhs", "rel_error")]
    assert workloads.CSV_FAULT.matches(csv)
    assert not workloads.CSV_FAULT.matches(csv[:4])
    assert not workloads.CSV_FAULT.matches(
        csv + ["row 3 has 5 fields, header has 6"])


def test_crash_of_kept_fault_operation_is_unexpected():
    def crash():
        raise RuntimeError("broken early")
    op = workloads.Operation("quasiaffine", crash,
                             workloads.QUASIAFFINE_FAULT)
    problems = op.run()
    assert problems == ["RuntimeError: broken early"]
    assert not op.expected(problems)
    assert op.expected([])
    assert not workloads.Operation("plain", crash).expected(problems)


def test_workloads_keep_exactly_the_named_faults(cc, tmp_path):
    kept = [op.name for op in workloads.operations(cc, "grid", 0, tmp_path)
            if op.fault]
    assert kept == ["identity-csv", "truncate", "helmholtz-divcurl2-64",
                    "helmholtz-div2-64", "helmholtz-curl_matrix_n-64"]
    assert [op.name for op in workloads.operations(cc, "trig", 0, tmp_path)
            if op.fault] == ["quasiaffine"]
    assert not any(op.fault for op in
                   workloads.operations(cc, "young", 0, tmp_path))


def test_every_per_layer_metric_names_a_traced_layer():
    """BENCHMARK.json's per_layer list is the one list of metric names; each
    must be <layer>.s, <layer>.calls or <layer>.<counter> of a traced layer."""
    layers = {layer for layer, *_ in tracing.LAYERS}
    counted = {layer for layer, _, _, count in tracing.LAYERS if count}
    assert tracing.METRICS
    for name in tracing.METRICS:
        layer, _, key = name.rpartition(".")
        assert layer in layers, name
        assert key in ("s", "calls") or layer in counted, name
