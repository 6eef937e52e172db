import math

import numpy as np
import pytest

from cclab.field import GridField, TrigPoly, random_bandlimited, standard_bump
from cclab.extension import (poisson_slab, pairing_identity, theoremD_ratio,
                             thmD_ensemble, interpolation_ensemble,
                             slab_derivatives)


def test_poisson_single_mode_decay():
    N = 64
    x = np.arange(N) * 2 * math.pi / N
    vals = np.broadcast_to(np.cos(3 * x)[:, None, None], (N, N, 1)).copy()
    f = GridField(vals, (2 * math.pi, 2 * math.pi))
    slab = poisson_slab(f, 0.5)
    assert np.max(np.abs(slab.values - math.exp(-1.5) * f.values)) < 1e-13


def test_poisson_constant_stays_constant():
    f = GridField(np.full((16, 16, 1), 4.0), (2 * math.pi, 2 * math.pi))
    slab = poisson_slab(f, 3.0)
    assert np.max(np.abs(slab.values - 4.0)) < 1e-13


def test_semigroup_exact(rng):
    f = random_bandlimited(rng, (32, 32), 2)
    a = poisson_slab(poisson_slab(f, 0.4), 0.7)
    b = poisson_slab(f, 1.1)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_poisson_trigpoly_exact():
    tp = TrigPoly.wave(2, (2, 1), "sin", 1.5)
    slab = poisson_slab(tp, 0.8)
    decay = math.exp(-0.8 * math.sqrt(5.0))
    grid = slab.render((32, 32))
    ref = tp.render((32, 32))
    assert np.max(np.abs(grid.values - decay * ref.values)) < 1e-14


# -- pairing identity -------------------------------------------------------

def plateau_case(N=128):
    period = 2 * math.pi
    x = np.arange(N) * period / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    c = period / 2
    r = np.hypot(X - c, Y - c)
    cut = np.where(r < 1.2, 1.0,
                   np.where(r < 2.4,
                            standard_bump((r - 1.2) / 1.2)
                            / standard_bump(np.zeros(1))[0], 0.0))
    A = np.array([[2.0, 0.5], [0.3, 1.5]])
    u = GridField(np.stack([(A[0, 0] * (X - c) + A[0, 1] * (Y - c)) * cut,
                            (A[1, 0] * (X - c) + A[1, 1] * (Y - c)) * cut],
                           axis=-1), (period, period))
    phi = GridField(standard_bump(r / 1.0)[..., None], (period, period))
    return u, phi, A


def test_identity_linear_plateau():
    u, phi, A = plateau_case()
    rep = pairing_identity(u, phi, T=8.0, tLevels=64)
    expected = np.linalg.det(A) * float(np.sum(phi.values) * u.cell_volume)
    assert abs(rep["lhs"] - expected) < 1e-6 * abs(expected)
    assert rep["relError"] < 1e-6


def test_identity_antisymmetry():
    u, phi, _ = plateau_case()
    swapped = GridField(u.values[..., ::-1], u.period)
    a = pairing_identity(u, phi, T=8.0, tLevels=32)
    b = pairing_identity(swapped, phi, T=8.0, tLevels=32)
    assert abs(a["lhs"] + b["lhs"]) < 1e-12 * abs(a["lhs"])
    assert abs(a["rhs"] + b["rhs"]) < 1e-8 * abs(a["rhs"])


def test_identity_tail_check_fires():
    u, phi, _ = plateau_case(N=64)
    with pytest.raises(ValueError, match="tail bound"):
        pairing_identity(u, phi, T=0.5, tLevels=16)


def test_identity_input_validation():
    u = GridField(np.zeros((8, 8, 1)), (1.0, 1.0))
    phi = GridField(np.zeros((8, 8, 1)), (1.0, 1.0))
    with pytest.raises(ValueError):
        pairing_identity(u, phi)


# -- ratio experiments ------------------------------------------------------

def test_thmD_ensemble_stable():
    ens = thmD_ensemble()
    assert ens["spread"] <= 4.0


def test_thmD_amplitude_invariance():
    """At each frequency the ratio does not move with the amplitude."""
    by_m = {}
    for r in thmD_ensemble()["records"]:
        by_m.setdefault(r["m"], []).append(r["ratio"])
    assert sorted(by_m) == [4, 8, 16, 32, 64]
    for ratios in by_m.values():
        assert len(ratios) == 3
        assert max(ratios) / min(ratios) < 1.0 + 1e-10


def test_thmD_zero_denominator_not_applicable():
    z = TrigPoly.zero(2, 4)
    phi = TrigPoly.wave(2, (1, 0), "cos")
    rep = theoremD_ratio(z, z, phi, alpha=0.5)
    assert rep["ratio"] is None
    assert "not applicable" in rep["note"]


def test_thmD_equal_fields_zero_pairing():
    from cclab.extension import _divcurl_pair
    u = _divcurl_pair(8, 1.0, 0.75)
    phi = TrigPoly.wave(2, (1, 1), "cos")
    rep = theoremD_ratio(u, u, phi, alpha=0.5)
    # u = v: the polarized pairing vanishes; denominator vanishes too
    assert rep["ratio"] is None


def test_interpolation_ensemble_stable():
    ens = interpolation_ensemble()
    assert ens["spread"] <= 4.0


# -- slab derivatives ------------------------------------------------------

def single_mode(m, N=512):
    x = np.arange(N) * 2 * math.pi / N
    return GridField(np.cos(m * x)[..., None], (2 * math.pi,))


def test_slab_derivatives_match_mode():
    f = single_mode(3, N=64)
    dt, dx = slab_derivatives(f, 0.5)
    x = np.arange(64) * 2 * math.pi / 64
    decay = math.exp(-1.5)
    assert np.max(np.abs(dt[..., 0] + 3 * decay * np.cos(3 * x))) < 1e-12
    assert np.max(np.abs(dx[..., 0] + 3 * decay * np.sin(3 * x))) < 1e-12
