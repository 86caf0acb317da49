import numpy as np
import pytest

from ibshell.cli import main
from ibshell.io import read_csv, read_displacement_map, read_snapshot
from ibshell.simulation import ModelConfig, Simulation


def test_run_writes_snapshots(tmp_path, capsys):
    cfg = ModelConfig(N=16, dt=8e-8, snapshot_every=3)
    cfg_path = tmp_path / "model.cfg"
    cfg_path.write_text(cfg.to_file_text())
    code = main([
        "run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        "--steps", "6",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ran 6 steps" in out
    snaps = sorted((tmp_path / "out").glob("*.ibsh"))
    assert [s.name for s in snaps] == [
        "snapshot_000003.ibsh", "snapshot_000006.ibsh", "snapshot_final.ibsh",
    ]
    snap = read_snapshot(snaps[-1])
    assert snap.N == 16 and snap.t == 6 * 8e-8
    # each snapshot holds the state of a simulation stepped by hand that far
    sim = Simulation(cfg)
    for steps, path in ((3, snaps[0]), (6, snaps[1]), (6, snaps[2])):
        while sim.step_count < steps:
            sim.step()
        snap = read_snapshot(path)
        assert np.array_equal(snap.X, sim.X) and np.array_equal(snap.u, sim.u)


def test_run_resolution_overrides(tmp_path):
    code = main([
        "run", "--out", str(tmp_path), "--n", "16", "--dt", "8e-8",
        "--steps", "2",
    ])
    assert code == 0
    snap = read_snapshot(tmp_path / "snapshot_final.ibsh")
    assert snap.N == 16 and snap.n1 == 161


def test_run_rejects_negative_steps(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path), "--n", "16", "--steps", "-5"])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # zero steps still writes the t = 0 snapshot
    assert main(["run", "--out", str(tmp_path), "--n", "16", "--dt", "8e-8",
                 "--steps", "0"]) == 0
    assert read_snapshot(tmp_path / "snapshot_final.ibsh").t == 0.0


def test_input_errors_are_usage_errors(tmp_path, capsys):
    # each names the flag it came from, and the path when it is one
    out = tmp_path / "out"
    missing = str(tmp_path / "missing")
    for argv, source in (
        (["run", "--n", "-4"], "--n"),
        (["run", "--n", "3"], "--n"),
        (["run", "--n", "24"], "--n"),
        (["run", "--dt", "-1"], "--dt"),
        (["run", "--config", missing], "--config"),
        (["study", "--n", "16"], "--n/--dt ladder"),
        (["study", "--n", "16,abc"], "--n"),
        (["study", "--n", "16,32", "--dt", "1e-8"], "--n/--dt ladder"),
        (["render", missing], "snapshot"),
    ):
        if argv[0] != "render":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ibshell"), argv
        assert f"ibshell: error: {source}: " in err, argv
        assert missing in err or missing not in argv, argv
        assert not out.exists(), argv


def test_study_prints_rates_per_norm(monkeypatch, capsys):
    import ibshell.harness as harness

    rng = np.random.default_rng(5)
    X0 = rng.standard_normal((3, 4, 3))
    times = np.linspace(0.25, 1.0, 4)
    records = [
        harness.StudyRecord(
            label=f"{i + 1}/{N}", N=N, dt=1.0 / N, T0=1.0, times=times,
            X=X0 + rng.standard_normal((4, 3, 4, 3)) / N, X0=X0,
        )
        for i, N in enumerate((128, 64, 32, 16))
    ]

    def fake_study(base, N_list, dt_list, out_dir, progress):
        for rec in records:
            progress(rec)
        return harness.StudySet(records=records, common_dims=(3, 4))

    monkeypatch.setattr(harness, "run_convergence_study", fake_study)
    # (norm, line) in the order the lines are printed
    lines = []
    for fine, mid, coarse in zip(records, records[1:], records[2:]):
        for p in ("1", "2", "inf"):
            r = harness.convergence_rates(
                fine, mid, coarse, "inf" if p == "inf" else int(p))
            lines.append((p, f"rate L{p}: {r:.4f}   ({fine.label} | "
                             f"{mid.label} | {coarse.label})"))
    runs = [f"run {rec.label}: 4 samples, 0.0 s wall" for rec in records]

    assert main(["study"]) == 0
    assert capsys.readouterr().out.splitlines() == runs + [t for _, t in lines]
    for p in ("1", "2", "inf"):
        assert main(["study", "--norm", p]) == 0
        assert capsys.readouterr().out.splitlines() == runs + [
            t for q, t in lines if q == p]


def test_checks_pass_and_exit_zero(capsys):
    assert main(["kernel-check"]) == 0
    assert main(["plate-check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    import ibshell.harness as harness

    real_phi = harness.phi
    monkeypatch.setattr(harness, "phi", lambda r: real_phi(r) * 1.0001)
    assert main(["kernel-check"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_render_round_trip(tmp_path):
    main(["run", "--out", str(tmp_path), "--n", "16", "--dt", "8e-8",
          "--steps", "4"])
    snap_path = tmp_path / "snapshot_final.ibsh"
    out_path = tmp_path / "wave.pgm"
    assert main(["render", str(snap_path), "--out", str(out_path)]) == 0
    img = read_displacement_map(out_path)
    cfg = ModelConfig(N=16)
    assert img.shape == (cfg.n1, cfg.n2)
    assert img.min() >= 0 and img.max() <= 255


@pytest.mark.slow
def test_study_subcommand_small_ladder(tmp_path, capsys):
    code = main([
        "study", "--out", str(tmp_path), "--n", "16,32",
        "--dt", "2e-8,1e-8", "--norm", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "run 1/32" in out and "run 2/16" in out
    header, rows = read_csv(tmp_path / "study_norms.csv")
    assert header == ["fine", "coarse", "p", "spacetime_norm"]
    assert all(float(r[-1]) > 0 for r in rows)
    # two runs: no three-run rate lines, but norms and E(t) tables exist
    assert (tmp_path / "study_rates.csv").exists()
    assert (tmp_path / "study_reldiff.csv").exists()
