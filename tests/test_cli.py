import numpy as np
import pytest

from ibshell.cli import main
from ibshell.io import (
    config_param_block,
    read_csv,
    read_displacement_map,
    read_snapshot,
    write_snapshot,
)
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
    snap = str(tmp_path / "snapshot_final.ibsh")  # the flag is checked first
    taken = tmp_path / "taken"  # a file where --out names a directory
    taken.write_text("kept\n")
    real = tmp_path / "real.ibsh"
    cfg = ModelConfig(N=16)
    sim = Simulation(cfg)
    write_snapshot(real, sim.X, sim.u, sim.p, sim.t, cfg.dt, config_param_block(cfg))
    bad_keys = {}  # malformed config file -> the key it sets
    for key, value in (("mu", "inf"), ("F_imp", "nan"), ("z_imp", "nan"),
                       ("lam", "nan"), ("w0", "-0.1"), ("L", "-0.5")):
        path = tmp_path / f"bad_{key}.cfg"
        path.write_text(f"N = 16\n{key} = {value}\n")
        bad_keys[str(path)] = key
    for argv, source in [
        (["run", "--config", path, "--steps", "3"], "--config") for path in bad_keys
    ] + [
        (["run", "--n", "-4"], "--n"),
        (["run", "--n", "3"], "--n"),
        (["run", "--n", "24"], "--n"),
        (["run", "--dt", "-1"], "--dt"),
        (["run", "--config", missing], "--config"),
        (["study", "--n", "16"], "--n/--dt ladder"),
        (["study", "--n", "16,abc"], "--n"),
        (["study", "--n", "16,32", "--dt", "1e-8"], "--n/--dt ladder"),
        (["study", "--n", "16,32", "--dt", "8e-8,4e-8"], "--n/--dt ladder"),
        (["study", "--n", "16,32", "--dt", "3e-8,1e-8"], "--n/--dt ladder"),
        (["render", missing], "snapshot"),
        (["render", snap, "--vmax", "0"], "--vmax"),
        (["render", snap, "--vmax=-2e-12"], "--vmax"),
        (["render", snap, "--vmax", "inf"], "--vmax"),
        (["render", snap, "--vmax", "nan"], "--vmax"),
        (["run", "--n", "16", "--dt", "8e-8", "--steps", "1", "--out", str(taken)],
         "--out"),
        (["study", "--n", "16,32", "--out", str(taken)], "--out"),
        (["render", str(real), "--out", str(taken / "x.pgm")], "--out"),
    ]:
        if argv[0] != "render" and "--out" not in argv:
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ibshell"), argv
        assert f"ibshell: error: {source}: " in err, argv
        assert missing in err or missing not in argv, argv
        assert not out.exists(), argv
        assert taken.read_text() == "kept\n", argv
        if argv[1:2] == ["--config"] and argv[2] in bad_keys:  # and its key
            assert f"--config: {argv[2]}: " in err, argv
            assert bad_keys[argv[2]] in err, argv


def test_unstable_run_is_one_error_line(tmp_path, capsys):
    # a run that fails once started exits 1 with one line naming the step,
    # not a traceback
    assert main(["run", "--n", "16", "--dt", "1e-3", "--steps", "3",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ibshell: error: max |X - X0| = ")
    assert err[0].endswith("exceeded a/2 at step 2")


def test_unwritable_snapshot_is_one_error_line(tmp_path, capsys):
    # a snapshot path that is a directory: exit 1 with one line naming the
    # path, and the snapshots written before it stay
    out = tmp_path / "out"
    cfg = tmp_path / "model.cfg"
    cfg.write_text("N = 16\ndt = 8e-8\nsnapshot_every = 1\n")
    taken = out / "snapshot_000002.ibsh"
    taken.mkdir(parents=True)
    assert main(["run", "--config", str(cfg), "--steps", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"ibshell: error: writing snapshot {taken}: ")
    assert read_snapshot(out / "snapshot_000001.ibsh").t == 8e-8
    assert sorted(p.name for p in out.iterdir()) == [
        "snapshot_000001.ibsh", "snapshot_000002.ibsh"]


def test_config_without_run_time_is_a_usage_error(tmp_path, capsys):
    # with no positive run time, run would take a negative step count and
    # study would fail only after building every rung
    out = tmp_path / "out"
    for command, value in (("run", "-2e-6"), ("study", "0")):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(f"N = 16\ndt = 8e-8\nT0 = {value}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"ibshell: error: --config: {cfg}: T0 must be positive and finite" in err
        assert not out.exists()


def test_study_prints_rates_per_norm(tmp_path, monkeypatch, capsys):
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
        return harness.StudySet(records=records)

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

    out = ["--out", str(tmp_path / "study_out")]
    assert main(["study"] + out) == 0
    assert capsys.readouterr().out.splitlines() == runs + [t for _, t in lines]
    for p in ("1", "2", "inf"):
        assert main(["study", "--norm", p] + out) == 0
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


def _assert_render_rejects(tmp_path, capsys, path, message):
    """`ibshell render path` exits 2 with `message` and writes no graymap."""
    with pytest.raises(SystemExit) as exc:
        main(["render", str(path), "--out", str(tmp_path / "out.pgm")])
    assert exc.value.code == 2, path.name
    err = capsys.readouterr().err
    assert f"ibshell: error: snapshot: {message}" in err, path.name
    assert not (tmp_path / "out.pgm").exists()


def test_render_rejects_params_that_disagree_with_the_header(tmp_path, capsys):
    # the param block rebuilds the shell that render decomposes X against,
    # so it must hold the header's N, n1 and n2, and agree with them
    cfg = ModelConfig(N=16)
    sim = Simulation(cfg)
    params = config_param_block(cfg)
    cases = [
        ("n2", sim.X[:, :5], params, "param n2 = "),
        ("n1", sim.X, {**params, "n1": cfg.n1 + 2.0}, "param n1 = "),
        ("N", sim.X, {**params, "N": 32.0}, "param N = "),
    ]
    for key in ("N", "n1", "n2"):
        block = {k: v for k, v in params.items() if k != key}
        cases.append((f"no_{key}", sim.X, block, f"param {key} is missing"))
    for name, X, block, message in cases:
        path = tmp_path / f"{name}.ibsh"
        write_snapshot(path, X, sim.u, sim.p, sim.t, cfg.dt, block)
        _assert_render_rejects(tmp_path, capsys, path, f"{path}: {message}")


def test_render_rejects_bad_snapshot_contents(tmp_path, capsys):
    # an int param that is not a whole number, a param name that is not
    # ASCII and a NaN in X each exit 2, naming the param or the file
    cfg = ModelConfig(N=16)
    sim = Simulation(cfg)
    params = config_param_block(cfg)
    X_nan = sim.X.copy()
    X_nan[40, 3, 2] = np.nan
    cases = [
        ("inf", sim.X, {**params, "snapshot_every": np.inf},
         "{path}: snapshot param snapshot_every = inf is not a finite whole number"),
        ("frac", sim.X, {**params, "snapshot_every": 16.4},
         "{path}: snapshot param snapshot_every = 16.4 is not a finite whole number"),
        ("n48", sim.X, {**params, "N": 48.0},
         "{path}: N must be a power of two, got 48"),
        ("ascii", sim.X, params, "{path}: param name b'k_cl\\xe4mp' is not ASCII"),
        ("nan", X_nan, params, "{path}: X holds a non-finite value"),
    ]
    u48 = np.zeros((3, 48, 48, 48))
    for name, X, block, message in cases:
        path = tmp_path / f"{name}.ibsh"
        u, p = (u48, u48[0]) if name == "n48" else (sim.u, sim.p)
        write_snapshot(path, X, u, p, sim.t, cfg.dt, block)
        if name == "ascii":
            blob = path.read_bytes()
            path.write_bytes(blob.replace(b"k_clamp\0", b"k_cl\xe4mp\0", 1))
        _assert_render_rejects(tmp_path, capsys, path, message.format(path=path))


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
