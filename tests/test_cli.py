import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from ibshell.cli import main
from ibshell.io import (
    read_csv,
    read_displacement_map,
    read_snapshot,
    write_snapshot,
)
from ibshell.simulation import FIELD_TYPES, ModelConfig, Simulation


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
    write_snapshot(real, sim)
    bad_keys = {}  # malformed config file -> the key it sets
    for key, value in (("mu", "inf"), ("F_imp", "nan"), ("z_imp", "nan"),
                       ("lam", "nan"), ("w0", "-0.1"), ("L", "-0.5"),
                       ("a", "1e-300"), ("a", "1e300"),  # h*h is 0 or inf
                       ("F_imp", "1e300"), ("F_imp", "-1e300"),  # F_imp/(h dt)
                       ("z_imp", "1e308"),  # z_imp/h
                       # the fluid symbol a(k) or its reciprocal
                       ("rho", "1e308"), ("rho", "5e-324"), ("mu_f", "1e308")):
        path = tmp_path / f"bad_{key}_{value}.cfg"
        path.write_text(f"N = 16\n{key} = {value}\n")
        bad_keys[str(path)] = key
    ladder_says = {  # an N ladder -> what its error says of N
        "0,16": "N must be a power of two, got 0",
        "-16,32": "N must be a power of two, got -16",
        "16,16,32": "N must halve at every rung",
        "16,64,128": "N must halve at every rung"}
    degenerate = []  # valid keys, but a shell whose geometry cannot be built
    for i, line in enumerate((
            "alpha = 0", "R = 1e300", "L = 3",
            # the tangent frame overflows
            "L = 1e-300", "L_BM = 1e-300", "w0 = 1e300", "w1 = 1e300",
            "H = 1e300", "H = -1e300", "alpha = 1e300", "alpha = -1e300",
            # the frame is finite, but the differences of b overflow
            "L = 1e-300\nalpha = 11.3",
            # a coefficient field of the force operator overflows
            "lam = 1e308", "mu = 1e308")):
        path = tmp_path / f"degenerate_{i}.cfg"
        path.write_text(f"N = 16\n{line}\n")
        degenerate.append(str(path))
    for argv, source in [
        (["run", "--config", path, "--steps", "3"], "--config")
        for path in [*bad_keys, *degenerate]
    ] + [
        (["study", "--config", path, "--n", "16,32", "--dt", "4e-8,2e-8"],
         "--config")
        for path in degenerate
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
        *((["study", f"--n={ladder}"], "--n/--dt ladder") for ladder in ladder_says),
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
        ladder = argv[1].removeprefix("--n=")
        if ladder in ladder_says:
            assert f"{source}: {ladder_says[ladder]}" in err, argv
        assert missing in err or missing not in argv, argv
        assert not out.exists(), argv
        assert taken.read_text() == "kept\n", argv
        if argv[1:2] == ["--config"] and argv[2] != missing:  # and its path
            assert f"--config: {argv[2]}: " in err, argv
            if argv[2] in bad_keys:  # and its key
                assert bad_keys[argv[2]] in err, argv


def test_run_config_value_sweep(tmp_path, capsys):
    # every float config key, one at a time, at zero, signs, extremes and
    # plain values: the run ends in exit 0, in a usage error naming the
    # config file, or in an instability at a named step; a traceback or a
    # RuntimeWarning (an error in this suite) fails the case
    out = str(tmp_path / "out")
    for key in [key for key, kind in FIELD_TYPES.items() if kind is float]:
        for value in ("0", "-1", "1e300", "-1e300", "1e-300", "5e-324", "1e308",
                      "0.5", "3", "1e6"):
            cfg = tmp_path / f"{key}_{value}.cfg"
            cfg.write_text(f"{key} = {value}\n")
            try:
                code = main(["run", "--config", str(cfg), "--n", "16", "--dt",
                             "8e-8", "--steps", "2", "--out", out])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{key} = {value}: {exc!r}")
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if "error:" in line]
            case = (key, value, code, err)
            if code == 0:
                assert err == "", case
            elif code == 2:
                assert err.startswith("usage: ibshell"), case
                assert len(errors) == 1, case
                assert errors[0].startswith(f"ibshell: error: --config: {cfg}: "), case
            else:
                assert code == 1, case
                assert len(err.splitlines()) == 1, case
                assert re.fullmatch(r"ibshell: error: .* at step \d+", errors[0]), case


def test_render_param_value_sweep(tmp_path, capsys):
    # every float config key of a snapshot's param block, one at a time, at
    # the values of the run sweep above: render ends in exit 0, or in a
    # usage error naming the snapshot; a traceback or a RuntimeWarning (an
    # error in this suite) fails the case
    sim = Simulation(ModelConfig(N=16))
    out = str(tmp_path / "out.pgm")
    for key in [key for key, kind in FIELD_TYPES.items() if kind is float]:
        for value in ("0", "-1", "1e300", "-1e300", "1e-300", "5e-324", "1e308",
                      "0.5", "3", "1e6"):
            path = tmp_path / f"{key}_{value}.ibsh"
            write_snapshot(path, _stand_in(sim, **{key: float(value)}))
            try:
                code = main(["render", str(path), "--out", out])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{key} = {value}: {exc!r}")
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if "error:" in line]
            case = (key, value, code, err)
            if code == 0:
                assert err == "", case
            else:
                assert code == 2, case
                assert err.startswith("usage: ibshell"), case
                assert len(errors) == 1, case
                assert errors[0].startswith(f"ibshell: error: snapshot: {path}: "), case


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


def test_study_of_a_shell_that_never_moves_is_a_usage_error(
        tmp_path, monkeypatch, capsys):
    import ibshell.cli as cli
    import ibshell.harness as harness

    def no_run(cfg):
        raise AssertionError(f"rung N = {cfg.N} was built before F_imp was checked")

    monkeypatch.setattr(cli, "Simulation", no_run)
    monkeypatch.setattr(harness, "Simulation", no_run)
    cfg = tmp_path / "still.cfg"
    cfg.write_text("F_imp = 0\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:  # a sampleable ladder: 50, 100 steps
        main(["study", "--config", str(cfg), "--n", "16,32", "--dt",
              "4e-8,2e-8", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: ibshell")
    assert err[-1].startswith(f"ibshell: error: --config: {cfg}: F_imp = 0 ")
    assert not out.exists()


def test_study_of_an_unmoved_shell_fails_in_one_line(tmp_path, capsys):
    # F_imp = 1e-300 passes the up-front checks, but X + dt U rounds to X on
    # every step, so the runs' relative differences divide by zero motion
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("F_imp = 1e-300\n")
    assert main(["study", "--config", str(cfg), "--n", "16,32", "--dt",
                 "4e-8,4e-8", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ibshell: error: study: relative difference undefined: "
        "the reference run has not moved"]


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


def _stand_in(sim, **changes):
    """What the snapshot writer reads of `sim`, with X, u or p, or config
    attributes, replaced; the config may carry values ModelConfig rejects."""
    arrays = {key: changes.pop(key, getattr(sim, key)) for key in ("X", "u", "p")}
    cfg = SimpleNamespace(**{**vars(sim.cfg), **changes})
    return SimpleNamespace(**arrays, t=sim.t, cfg=cfg)


def _rename_param(path, old, new):
    """Rewrite the first param record named `old` in a snapshot file."""
    blob = path.read_bytes()
    path.write_bytes(blob.replace(old.ljust(24, b"\0"), new.ljust(24, b"\0"), 1))


def test_render_rejects_params_that_disagree_with_the_header(tmp_path, capsys):
    # the param block rebuilds the shell that render decomposes X against,
    # and dt times the step count is t, so it must hold the header's N, n1,
    # n2 and dt, and agree with them
    cfg = ModelConfig(N=16, dt=8e-8)
    sim = Simulation(cfg)
    cases = [
        ("n2", _stand_in(sim, X=sim.X[:, :5]), "param n2 = "),
        ("n1", _stand_in(sim, n1=cfg.n1 + 2), "param n1 = "),
        ("N", _stand_in(sim, N=32), "param N = "),
    ]
    for name, source, message in cases:
        path = tmp_path / f"{name}.ibsh"
        write_snapshot(path, source)
        _assert_render_rejects(tmp_path, capsys, path, f"{path}: {message}")
    path = tmp_path / "dt.ibsh"
    write_snapshot(path, sim)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 28, 4e-8)  # the header's dt
    path.write_bytes(blob)
    _assert_render_rejects(tmp_path, capsys, path, f"{path}: param dt = 8e-08 "
                           "disagrees with the header's dt = 4e-08")
    for key in ("N", "n1", "n2", "dt"):
        path = tmp_path / f"no_{key}.ibsh"
        write_snapshot(path, sim)
        _rename_param(path, key.encode(), f"no_{key}".encode())
        _assert_render_rejects(tmp_path, capsys, path,
                               f"{path}: param {key} is missing")


def test_render_rejects_bad_snapshot_contents(tmp_path, capsys):
    # an int param that is not a whole number, a param name that is not
    # ASCII, a NaN in X and params whose shell is degenerate each exit 2,
    # naming the param or the file
    sim = Simulation(ModelConfig(N=16))
    X_nan = sim.X.copy()
    X_nan[40, 3, 2] = np.nan
    u48 = np.zeros((3, 48, 48, 48))
    cases = [
        ("inf", _stand_in(sim, snapshot_every=np.inf),
         "{path}: snapshot param snapshot_every = inf is not a finite whole number"),
        ("frac", _stand_in(sim, snapshot_every=16.4),
         "{path}: snapshot param snapshot_every = 16.4 is not a finite whole number"),
        ("n48", _stand_in(sim, u=u48, p=u48[0], N=48),
         "{path}: N must be a power of two, got 48"),
        ("ascii", sim, "{path}: param name b'k_cl\\xe4mp' is not ASCII"),
        ("nan", _stand_in(sim, X=X_nan), "{path}: X holds a non-finite value"),
        ("alpha", _stand_in(sim, alpha=0.0), "{path}: collapsed parameterization"),
        ("L", _stand_in(sim, L=1e-300), "{path}: the rest shell's gradb is not finite"),
    ]
    for name, source, message in cases:
        path = tmp_path / f"{name}.ibsh"
        write_snapshot(path, source)
        if name == "ascii":
            _rename_param(path, b"k_clamp", b"k_cl\xe4mp")
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
