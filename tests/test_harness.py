import numpy as np
import pytest

import ibshell.harness as harness
from ibshell.harness import (
    StudyRecord,
    convergence_rates,
    geometry_check,
    kernel_check,
    lp_norm,
    plate_check,
    rate_from_norms,
    relative_difference,
    restrict_to_common_grid,
    run_convergence_study,
    run_traveling_wave,
    sample_steps,
    spacetime_norm,
)
from ibshell.io import read_csv
from ibshell.simulation import ModelConfig, Simulation


def make_record(label, X, times, T0, X0=None):
    X = np.asarray(X, dtype=float)
    return StudyRecord(
        label=label, N=0, dt=0.0, T0=T0, times=np.asarray(times, dtype=float),
        X=X, X0=X[0] if X0 is None else X0,
    )


# ---------------------------------------------------------------------------
# Norms and restriction
# ---------------------------------------------------------------------------


def test_lp_norms():
    a = np.array([3.0, -4.0])
    assert lp_norm(a, 1) == 7.0
    assert lp_norm(a, 2) == 5.0
    assert lp_norm(a, "inf") == 4.0
    with pytest.raises(ValueError):
        lp_norm(a, 3)


def test_restrict_identity_and_constant():
    X = np.arange(7 * 5 * 3, dtype=float).reshape(7, 5, 3)
    assert np.array_equal(restrict_to_common_grid(X, (7, 5)), X)
    const = np.ones((161, 7, 3)) * 2.5
    out = restrict_to_common_grid(const, (160, 6))
    assert out.shape == (160, 6, 3)
    assert np.all(out == 2.5)


def test_restrict_index_map_oracle():
    # 641 -> 320 takes every 2nd node: source index s*j - 1 (0-based), j=1..m
    n1, n2 = 641, 13
    X = np.zeros((n1, n2, 3))
    X[..., 0] = np.arange(n1)[:, None]
    X[..., 1] = np.arange(n2)[None, :]
    out = restrict_to_common_grid(X, (320, 6))
    assert out.shape == (320, 6, 3)
    assert np.array_equal(out[..., 0], np.broadcast_to(
        (2 * np.arange(1, 321) - 1)[:, None], (320, 6)))
    assert np.array_equal(out[..., 1], np.broadcast_to(
        (2 * np.arange(1, 7) - 1)[None, :], (320, 6)))


def test_restrict_non_nested_raises():
    X = np.zeros((641, 13, 3))
    with pytest.raises(ValueError, match="non-nested"):
        restrict_to_common_grid(X, (321, 6))  # 640/321 is not an integer


def test_relative_difference_cases():
    rng = np.random.default_rng(0)
    X0 = rng.standard_normal((6, 5, 3))
    X1 = X0 + rng.standard_normal((6, 5, 3)) * 0.1
    assert relative_difference(X1, X1, X0, 2) == 0.0
    # X2 = X1(0): numerator equals denominator
    assert relative_difference(X1, X0, X0, 1) == pytest.approx(1.0)
    # single perturbed node against a direct norm computation
    X2 = X1.copy()
    X2[3, 2, 1] += 1e-3
    for p in (1, 2, "inf"):
        expect = lp_norm(X1 - X2, p) / lp_norm(X1 - X0, p)
        assert relative_difference(X1, X2, X0, p) == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError, match="undefined"):
        relative_difference(X1, X2, X1, 2)


def test_spacetime_norm_windows_and_errors():
    T0 = 1.0
    times = np.linspace(0.1, 1.0, 10)
    rng = np.random.default_rng(1)
    base = rng.standard_normal((10, 4, 4, 3))
    r1 = make_record("a", base, times, T0)
    r2 = make_record("b", base, times, T0)
    assert spacetime_norm(r1, r2, 1) == 0.0

    # known per-time gaps, summed only over t >= T0/2
    gaps = np.linspace(1.0, 10.0, 10)
    shifted = base + gaps[:, None, None, None] / (4 * 4 * 3)
    r3 = make_record("c", shifted, times, T0)
    expect = gaps[times >= 0.5].sum()
    assert spacetime_norm(r1, r3, 1) == pytest.approx(expect, rel=1e-12)

    # a single sampled time reduces to the plain norm
    ra = make_record("a", base[:1], [1.0], T0)
    rb = make_record("b", shifted[:1], [1.0], T0)
    assert spacetime_norm(ra, rb, 1) == pytest.approx(lp_norm(base[0] - shifted[0], 1))

    bad = make_record("d", base, times + 1e-3, T0)
    with pytest.raises(ValueError, match="sample times"):
        spacetime_norm(r1, bad, 1)


def test_rate_from_norms_reference_values():
    # halving errors -> 1; ratio 4 -> 2
    assert rate_from_norms(2.0, 1.0) == pytest.approx(1.0)
    assert rate_from_norms(4.0, 1.0) == pytest.approx(2.0)
    # the published L1 pair for the mid/coarse vs fine/mid comparison
    assert rate_from_norms(2.3984e-7, 9.6290e-8) == pytest.approx(1.3166, abs=5e-5)
    with pytest.raises(ValueError):
        rate_from_norms(0.0, 1.0)


def test_convergence_rates_synthetic_records():
    # geometric error cascade: coarse-mid gap 4x the mid-fine gap -> r = 2
    T0, times = 1.0, np.array([0.6, 0.8, 1.0])
    shape = (3, 4, 4, 3)
    fine = make_record("f", np.zeros(shape), times, T0)
    mid = make_record("m", np.full(shape, 1.0), times, T0)
    coarse = make_record("c", np.full(shape, 5.0), times, T0)
    for p in (1, 2, "inf"):
        assert convergence_rates(fine, mid, coarse, p) == pytest.approx(2.0)


def test_sample_steps():
    cfg = ModelConfig(N=16, dt=2e-8, T0=2e-6)  # 100 steps
    steps = sample_steps(cfg, 50)
    assert steps[0] == 2 and steps[-1] == 100 and len(steps) == 50
    with pytest.raises(ValueError, match="sampled"):
        sample_steps(cfg, 33)
    with pytest.raises(ValueError, match="whole number"):
        sample_steps(ModelConfig(N=16, dt=3.0e-8, T0=2e-6), 50)
    for n_samples in (0, -5):  # 0 divided by zero; -5 gave no steps
        with pytest.raises(ValueError, match=f"sampled {n_samples} times"):
            sample_steps(cfg, n_samples)


# ---------------------------------------------------------------------------
# Small end-to-end study (two runs; machinery + CSV schema)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_two_run_study_smoke(tmp_path):
    study = run_convergence_study(
        N_list=(16, 32), dt_list=(2e-8, 1e-8), out_dir=tmp_path
    )
    assert [r.N for r in study.records] == [32, 16]
    assert study.records[0].X.shape == (50, 160, 6, 3)
    norms = study.pair_norms()
    assert len(norms) == 3  # one pair x three norms
    assert all(v > 0 for *_, v in norms)
    # E(t) series is finite and positive once motion starts
    series = study.relative_difference_series(0, 1, 2)
    assert np.isfinite(series).all() and (series >= 0).all()
    # CSV written and parseable with the documented headers
    header, rows = read_csv(tmp_path / "study_norms.csv")
    assert header == ["fine", "coarse", "p", "spacetime_norm"]
    assert len(rows) == 3
    header, rows = read_csv(tmp_path / "study_reldiff.csv")
    assert header == ["fine", "coarse", "p", "t", "E"]
    assert len(rows) == 3 * 50


def test_study_rejects_bad_ladders(monkeypatch):
    def no_run(cfg):
        raise AssertionError(f"rung N = {cfg.N} ran before the ladder was checked")

    monkeypatch.setattr(harness, "Simulation", no_run)
    for N_list, dt_list, match in (
        ((16,), (2e-8,), "at least two"),
        ((16, 32), (2e-8,), "pair up"),
        ((16, 32), (8e-8, 4e-8), "sampled"),  # 25 steps at N = 16
        ((16, 32), (3e-8, 1e-8), "whole number"),
    ):
        with pytest.raises(ValueError, match=match):
            run_convergence_study(N_list=N_list, dt_list=dt_list)


@pytest.mark.slow
def test_traveling_wave_machinery():
    rec = run_traveling_wave(
        N=16, dt=8e-8, first_snapshot_step=4, snapshot_stride=4, n_snapshots=3
    )
    assert rec.omega.shape == (3, 161)
    assert rec.omega_full.shape == (3, 161, 7)
    assert np.isfinite(rec.omega).all()
    assert rec.times[0] == pytest.approx(4 * 8e-8)
    # each snapshot is the state of a simulation stepped by hand that far
    sim = Simulation(ModelConfig(N=16, dt=8e-8))
    for i in range(3):
        for _ in range(4):
            sim.step()
        assert np.array_equal(rec.omega_full[i], sim.omega())
    # with no N, dt or thickness_law given, base_cfg sets all three
    base = ModelConfig(N=16, dt=8e-8, thickness_law="exact")
    rec = run_traveling_wave(base_cfg=base, first_snapshot_step=1,
                             snapshot_stride=1, n_snapshots=1)
    assert rec.q1.shape == (161,)
    assert list(rec.times) == [8e-8]
    sim = Simulation(base)
    sim.step()
    assert np.array_equal(rec.omega_full[0], sim.omega())


def test_traveling_wave_rejects_unsampleable_schedules():
    for bad in ({"first_snapshot_step": 0}, {"snapshot_stride": 0},
                {"n_snapshots": 0}):
        with pytest.raises(ValueError, match="must be >= 1"):
            run_traveling_wave(N=16, dt=8e-8, **bad)


def test_run_sampled_takes_the_hand_stepped_state():
    cfg = ModelConfig(N=16, dt=8e-8, T0=6.4e-7)  # 8 steps, 4 samples
    rec = harness.run_sampled(cfg, 4, (80, 3))
    sim = Simulation(cfg)
    for j in range(4):
        sim.step()
        sim.step()
        assert np.array_equal(rec.X[j], restrict_to_common_grid(sim.X, (80, 3)))


# ---------------------------------------------------------------------------
# Self-checks
# ---------------------------------------------------------------------------


def test_kernel_check_passes_and_detects_faults(monkeypatch):
    results = kernel_check()
    assert all(r.passed for r in results), [r.line() for r in results]

    real_phi = harness.phi
    monkeypatch.setattr(harness, "phi", lambda r: real_phi(r) * 1.0001)
    assert not all(r.passed for r in kernel_check())


def test_plate_check_passes():
    results = plate_check()
    assert all(r.passed for r in results), [r.line() for r in results]


def test_plate_check_detects_asymmetric_elasticity(monkeypatch):
    import ibshell.shell as shell_mod

    real = shell_mod.elasticity_form

    def lopsided(ginv, lam, mu):  # components first, as elasticity_form
        c1 = lam * mu / (lam + 2.0 * mu)
        return c1 * np.einsum("abxy,gdxy->abgdxy", ginv, ginv) + mu * np.einsum(
            "agxy,bdxy->abgdxy", ginv, ginv
        )

    monkeypatch.setattr(shell_mod, "elasticity_form", lopsided)
    try:
        results = plate_check()
    finally:
        monkeypatch.setattr(shell_mod, "elasticity_form", real)
    assert not all(r.passed for r in results)


@pytest.mark.slow
def test_geometry_check_passes():
    results = geometry_check()
    assert all(r.passed for r in results), [r.line() for r in results]
