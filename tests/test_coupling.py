import dataclasses
import importlib.metadata
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import oracles
import pytest

from ibshell import coupling
from ibshell.coupling import coupling_matrix, interpolate_velocity, phi, spread_force
from ibshell.fluid import FluidParams, FluidSolver
from ibshell.simulation import ModelConfig, build_model_shell

PRM = FluidParams(N=16, a=0.1, rho=1.034, mu_f=0.0197, dt=1e-8)


def shell_arrays(M, rng, prm=PRM, margin=0.0):
    X = rng.uniform(margin, prm.a - margin, size=(1, M, 3))
    f = rng.standard_normal((1, M, 3))
    dq = rng.uniform(0.5, 1.5, size=(1, M)) * 1e-5
    return f, X, dq


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_phi_point_values():
    assert phi(0.0) == pytest.approx(0.5, abs=1e-15)          # (3 + 1)/8
    assert phi(1.0) == pytest.approx(0.25, abs=1e-15)         # both branches
    assert phi(-1.0) == pytest.approx(0.25, abs=1e-15)
    assert phi(2.0) == 0.0 and phi(-2.0) == 0.0 and phi(3.7) == 0.0


def test_phi_branch_continuity():
    for r0 in (1.0, 2.0):
        lo = phi(r0 - 1e-9)
        hi = phi(r0 + 1e-9)
        assert abs(lo - hi) < 1e-8


def test_phi_partition_of_unity_and_parity_sums():
    rng = np.random.default_rng(0)
    r = rng.uniform(-3, 3, size=2048)
    j = np.arange(-6, 7)
    vals = phi(r[:, None] - j[None, :])
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
    even = vals[:, j % 2 == 0].sum(axis=1)
    odd = vals[:, j % 2 == 1].sum(axis=1)
    assert np.abs(even - 0.5).max() < 1e-12
    assert np.abs(odd - 0.5).max() < 1e-12


def test_phi_matches_masked_oracle_bitwise():
    rng = np.random.default_rng(9)
    r = np.concatenate([
        rng.uniform(-3.0, 3.0, size=4096),
        [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1.5, 3.0, np.inf, -np.inf, np.nan],
        np.nextafter([1.0, 2.0, -1.0, -2.0], 0.0),
        np.nextafter([1.0, 2.0, -1.0, -2.0], 3.0),
    ])
    assert np.array_equal(phi(r), oracles.phi_masked(r))
    r3 = r[:4095].reshape(-1, 5, 3)
    assert np.array_equal(phi(r3), oracles.phi_masked(r3))
    for x in (0.0, 1.0, -1.5, 2.0, 7.0):
        assert phi(x) == oracles.phi_masked(x) and isinstance(phi(x), float)


@pytest.mark.parametrize("N", [2, 4, 8, 16, 64])
def test_coupling_matrix_matches_broadcast_oracle_bitwise(N):
    prm = FluidParams(N=N, a=0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    rng = np.random.default_rng(N)
    M = 300
    h = prm.h
    # negative and beyond-the-box coordinates wrap
    X = rng.uniform(-1.5 * prm.a, 2.5 * prm.a, size=(M, 3))
    # nodes on cell faces (integer s): |r| is exactly 0, 1 and 2 there
    X[:60] = h * rng.integers(-2 * N, 3 * N, size=(60, 3))
    # one axis on a face, the others generic
    X[60:120, 1] = h * rng.integers(-N, 2 * N, size=60)
    S = coupling_matrix(X, prm)
    ref = oracles.coupling_matrix_broadcast(X, prm)
    assert S.shape == ref.shape
    assert np.array_equal(S.data, ref.data)
    assert np.array_equal(S.indices, ref.indices)  # values; dtypes may differ
    assert np.array_equal(S.indptr, ref.indptr)
    u = rng.standard_normal(N**3)
    # per component, as at N = 64, where the lanes share the components
    f = rng.standard_normal((M, 3))
    dq = rng.uniform(1e-6, 1e-5, size=M)
    F = spread_force(f, S, dq, prm)
    v = rng.standard_normal((3, N, N, N))
    U = interpolate_velocity(v, S)
    for c in range(3):
        assert np.array_equal(F[c].ravel(), ref.T @ (f[:, c] * (dq / h**3)))
        assert np.array_equal(U[:, c], ref @ v[c].ravel())
    # S of earlier positions: reused while no node changes cell, rebuilt
    # when one does or when it was built at another N
    S_data = S.data.copy()
    s = X / h
    nudge = rng.uniform(-0.25, 0.25, size=X.shape)
    X2 = h * np.clip(s + nudge, np.floor(s) + 0.01, np.floor(s) + 0.99)
    X2[:60] = X[:60]  # the face nodes stay on their faces
    m = M // 2
    X2[m, 0] = h * (np.floor(s[m, 0]) + 0.25)
    X3 = X2.copy()
    X3[m, 0] += 1.5 * h  # one cell on: a new cell also where N = 2
    # at 2N, with each row starting at the column X's row starts at at N
    other = FluidParams(N=2 * N, a=0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    first = ref.indices[::64]
    cells = np.stack(np.unravel_index(first, (2 * N,) * 3), axis=1)
    S_other = coupling_matrix(other.h * (cells + 1.5), other)
    assert np.array_equal(S_other.indices[::64], first)
    for Y, prev, same in ((X2, S, True), (X3, S, False), (X, S_other, False)):
        S_y = coupling_matrix(Y, prm, prev)
        ref_y = oracles.coupling_matrix_broadcast(Y, prm)
        assert (S_y is prev) == same
        assert S_y.shape == ref_y.shape
        assert np.array_equal(S_y.data, ref_y.data)
        assert np.array_equal(S_y.indices, ref_y.indices)
        assert np.array_equal(S_y.indptr, ref_y.indptr)
        U_y = interpolate_velocity(np.broadcast_to(u, (3, N**3)), S_y)
        assert np.array_equal(U_y[:, 0], ref_y @ u)
    assert not np.array_equal(S_data, S.data)  # the reuse rewrote the weights


@pytest.mark.parametrize("N", [16, 32, 64])
def test_stencil_weights_match_phi_bitwise(N):
    # coupling_matrix fixes each stencil offset's branch of phi (inner for
    # offsets 1 and 2, outer for 0 and 3); its weights must be phi's tensor
    # products, sign bits included, on the model shell and at lattice
    # coordinates on cell faces and one ulp to either side of them (a box
    # of side 1, so X = s h and X / h = s are exact)
    def weights(X, prm):
        s = X / prm.h
        cells = np.floor(s).astype(np.int64) - 1
        w = phi(s[:, :, None] - (cells[:, :, None] + np.arange(4)))
        w3 = w[:, 0, :, None, None] * w[:, 1, None, :, None] * w[:, 2, None, None, :]
        return w3.reshape(-1)

    cfg = ModelConfig(N=N)
    box = FluidParams(N=N, a=1.0, rho=1.0, mu_f=0.01, dt=1e-8)
    rng = np.random.default_rng(N)
    faces = rng.integers(-N, 2 * N, size=(300, 3)).astype(float)
    faces[:3] = [[0.0, 1.0, 2.0], [N - 1.0, N, N + 1.0], [-1.0, -2.0, 3.0]]
    s = np.concatenate([faces, np.nextafter(faces, -np.inf),
                        np.nextafter(faces, np.inf)])
    for X, prm in ((build_model_shell(cfg).X0.reshape(-1, 3), cfg.fluid_params()),
                   (s * box.h, box)):
        S = coupling_matrix(X, prm)
        assert S.data.tobytes() == weights(X, prm).tobytes()


def test_coupling_matrix_int64_columns():
    # N^3 = 2^33 columns overflow int32, so S's indices are int64; seven
    # nodes build it in milliseconds, with no N^3 array
    prm = FluidParams(N=2048, a=0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    X = np.random.default_rng(7).uniform(0.0, prm.a, size=(7, 3))
    S = coupling_matrix(X, prm)
    assert S.shape == (7, 2048**3) and S.indices.dtype == np.int64
    for Y in (X, X + 1e-9):
        S_y = coupling_matrix(Y, prm, S)
        ref = oracles.coupling_matrix_broadcast(Y, prm)
        assert S_y is S  # no node changed cell: the weights are rewritten
        assert np.array_equal(S_y.data, ref.data)
        assert np.array_equal(S_y.indices, ref.indices)
        assert np.array_equal(S_y.indptr, ref.indptr)


def test_fresh_coupling_matrix_memory_at_n64():
    # one pass over blocks of nodes writes S's column indices and weights
    # straight into the (M, 64) arrays S keeps; a whole (4, 4, 4, M) index
    # array and its flattened copy took 6.0 MB beyond S, the one-pass build
    # 1.8 MB
    cfg = ModelConfig(N=64, dt=2e-8)
    X, prm = build_model_shell(cfg).X0, cfg.fluid_params()
    coupling_matrix(X, prm)  # warm: first-call allocations are not S's
    tracemalloc.start()
    try:
        S = coupling_matrix(X, prm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
    assert held > 12e6  # 16,025 rows x 64 entries x 12 bytes
    assert peak - held <= 3e6, peak - held


def test_reused_coupling_matrix_memory_at_n64():
    # a step's S is rewritten in place: the lattice coordinates and the
    # cells are one (3, M) array each, the reuse check ravels the wrapped
    # cells one axis at a time, and each block's product of weights is
    # dropped as it is written. It peaked at 1.59 MB while the check formed
    # a (3, M) cells % N and the last block's product lived beside the next
    cfg = ModelConfig(N=64, dt=2e-8)
    X, prm = build_model_shell(cfg).X0, cfg.fluid_params()
    S = coupling_matrix(X, prm)
    coupling_matrix(X, prm, S)  # warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S_again = coupling_matrix(X, prm, S)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert S_again is S
    assert peak <= 1.45e6, peak


def test_reused_coupling_matrix_with_lent_scratch_memory_at_n64():
    # in a step the coordinates, the cells, the check's first columns and
    # each block's offsets, phi argument and weight product live in the
    # fluid solver's idle r_hat[0] (FluidSolver.idle): 0.25 MB of fresh
    # temporaries, against 1.33 without it
    cfg = ModelConfig(N=64, dt=2e-8)
    X, prm = build_model_shell(cfg).X0, cfg.fluid_params()
    scratch = FluidSolver(prm).idle()[0]
    S = coupling_matrix(X, prm)
    coupling_matrix(X, prm, S, scratch)  # warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S_again = coupling_matrix(X, prm, S, scratch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert S_again is S
    assert peak <= 0.35e6, peak


# ---------------------------------------------------------------------------
# spreading
# ---------------------------------------------------------------------------


def test_spread_single_node_on_lattice_point():
    # node exactly on a lattice point: the point gets dq * h^-3 * phi(0)^3
    prm = PRM
    h = prm.h
    X = np.array([[[3 * h, 5 * h, 7 * h]]])
    f = np.zeros((1, 1, 3))
    f[..., 2] = 1.0
    dq = np.full((1, 1), 2.5e-5)
    F = spread_force(f, coupling_matrix(X, prm), dq, prm)
    assert F[2, 3, 5, 7] == pytest.approx(2.5e-5 / h**3 / 8.0, rel=1e-13)
    # neighbor at offset (1,0,0): phi(1) phi(0) phi(0) = 1/4 * 1/2 * 1/2
    assert F[2, 4, 5, 7] == pytest.approx(2.5e-5 / h**3 / 16.0, rel=1e-13)
    assert F[2, 5, 5, 7] == pytest.approx(0.0, abs=1e-30)  # phi(2) = 0
    assert np.abs(F[:2]).max() == 0.0


def test_spread_zero_and_nonfinite():
    rng = np.random.default_rng(1)
    f, X, dq = shell_arrays(20, rng)
    S = coupling_matrix(X, PRM)
    assert np.abs(spread_force(np.zeros_like(f), S, dq, PRM)).max() == 0.0
    # into a given `out`, each of S's terms is added to what it holds, one
    # at a time in S's row order (np.add.at adds unbuffered, in order)
    G = rng.standard_normal((3, PRM.N, PRM.N, PRM.N))
    want = G.reshape(3, -1).copy()
    v = f.reshape(-1, 3) * (dq.reshape(-1) / PRM.h**3)[:, None]
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    for c in range(3):
        np.add.at(want[c], S.indices, S.data * v[rows, c])
    assert spread_force(f, S, dq, PRM, out=G) is G
    assert np.array_equal(G.reshape(3, -1), want)
    X[0, 3, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        coupling_matrix(X, PRM)


def test_total_force_conservation():
    rng = np.random.default_rng(2)
    f, X, dq = shell_arrays(200, rng)
    F = spread_force(f, coupling_matrix(X, PRM), dq, PRM)
    total_grid = F.sum(axis=(1, 2, 3)) * PRM.h**3
    total_shell = (f * dq[..., None]).sum(axis=(0, 1))
    assert np.allclose(total_grid, total_shell, rtol=1e-12)


def test_translation_invariance_of_total():
    rng = np.random.default_rng(3)
    f, X, dq = shell_arrays(50, rng)
    totals = []
    for shift in np.linspace(0, 2 * PRM.h, 17):
        F = spread_force(f, coupling_matrix(X + shift, PRM), dq, PRM)
        totals.append(F.sum(axis=(1, 2, 3)) * PRM.h**3)
    totals = np.array(totals)
    assert np.abs(totals - totals[0]).max() < 1e-12 * np.abs(totals[0]).max()


def test_periodic_wrap_against_tiled_oracle():
    # nodes near the faces spread onto wrapped indices; compare against a
    # replicated 3x-tiled lattice reduced back to the fundamental cell. At
    # N = 2 a node's four offsets per axis wrap onto repeated lattice
    # indices, whose weights must add up.
    for N in (2, 8):
        _check_wrap_against_tiled_oracle(N)


def _check_wrap_against_tiled_oracle(N):
    prm = FluidParams(N=N, a=0.1, rho=1.0, mu_f=0.01, dt=1e-8)
    rng = np.random.default_rng(4)
    M = 30
    X = rng.uniform(0, prm.a, size=(1, M, 3))
    X[0, :10] = rng.uniform(0, 1.5 * prm.h, size=(10, 3))  # hug the faces
    f = rng.standard_normal((1, M, 3))
    dq = np.full((1, M), 1e-5)
    u = rng.standard_normal((3, N, N, N))
    S = coupling_matrix(X, prm)
    F = spread_force(f, S, dq, prm)
    U = interpolate_velocity(u, S)

    h = prm.h
    big = np.zeros((3, 3 * N, 3 * N, 3 * N))
    U_loop = np.zeros((M, 3))
    for q in range(M):
        s = X[0, q] / h + N  # center copy
        base = np.floor(s).astype(int) - 1
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    wij = (
                        phi(s[0] - (base[0] + i))
                        * phi(s[1] - (base[1] + j))
                        * phi(s[2] - (base[2] + k))
                    )
                    big[:, base[0] + i, base[1] + j, base[2] + k] += (
                        f[0, q] * dq[0, q] / h**3 * wij
                    )
                    U_loop[q] += wij * u[:, (base[0] + i) % N,
                                         (base[1] + j) % N, (base[2] + k) % N]
    folded = np.zeros((3, N, N, N))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                folded += big[
                    :, a * N:(a + 1) * N, b * N:(b + 1) * N, c * N:(c + 1) * N
                ]
    assert np.allclose(F, folded, atol=1e-13 * np.abs(F).max())
    assert np.allclose(U, U_loop, atol=1e-13 * np.abs(u).max())


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_constant_and_zero():
    rng = np.random.default_rng(5)
    _, X, _ = shell_arrays(40, rng)
    u = np.zeros((3, PRM.N, PRM.N, PRM.N))
    S = coupling_matrix(X, PRM)
    assert np.abs(interpolate_velocity(u, S)).max() == 0.0
    cvec = np.array([0.3, -1.2, 2.0])
    u += cvec[:, None, None, None]
    U = interpolate_velocity(u, S)
    assert np.allclose(U, cvec, rtol=1e-13)


def test_interpolate_linear_field_first_moment():
    # linear-in-x lattice fields are reproduced exactly away from the wrap
    prm = PRM
    N, h = prm.N, prm.h
    x = h * np.arange(N)
    u = np.zeros((3, N, N, N))
    u[0] = np.broadcast_to(x[:, None, None], (N,) * 3)
    rng = np.random.default_rng(6)
    X = rng.uniform(3 * h, prm.a - 3 * h, size=(1, 25, 3))
    U = interpolate_velocity(u, coupling_matrix(X, prm))
    assert np.allclose(U[:, 0], X[0, :, 0], atol=1e-13)


def test_adjointness_of_spread_and_interpolate():
    rng = np.random.default_rng(7)
    f, X, dq = shell_arrays(120, rng)
    u = rng.standard_normal((3, PRM.N, PRM.N, PRM.N))
    S = coupling_matrix(X, PRM)
    F = spread_force(f, S, dq, PRM)
    U = interpolate_velocity(u, S)
    lhs = float(np.sum(F * u)) * PRM.h**3
    rhs = float(np.sum(f[0] * U * dq[0, :, None]))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_positions_outside_box_are_wrapped():
    rng = np.random.default_rng(8)
    f, X, dq = shell_arrays(30, rng)
    F1 = spread_force(f, coupling_matrix(X, PRM), dq, PRM)
    shift = np.array([PRM.a, -2 * PRM.a, 5 * PRM.a])
    F2 = spread_force(f, coupling_matrix(X + shift, PRM), dq, PRM)
    assert np.allclose(F1, F2, atol=1e-12 * np.abs(F1).max())


# ---------------------------------------------------------------------------
# scipy's compiled kernels, called without scipy.sparse
# ---------------------------------------------------------------------------


def test_run_and_checks_do_not_import_scipy_sparse():
    # the package import of scipy.sparse alone held ~21 MB of every run's
    # peak memory; the coupling loads only its compiled kernels
    src = Path(__file__).resolve().parents[1] / "src"
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "import ibshell.cli",
        "from ibshell import harness",
        "from ibshell.simulation import ModelConfig, Simulation",
        "Simulation(ModelConfig(N=16, dt=8e-8)).run(2)",
        "harness.kernel_check()",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.')))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "'scipy.sparse'" not in run.stdout, run.stdout


def _model_arrays(N=16):
    cfg = ModelConfig(N=N, dt=8e-8)
    prm = cfg.fluid_params()
    X = build_model_shell(cfg).X0.reshape(-1, 3)
    rng = np.random.default_rng(N)
    f = rng.standard_normal(X.shape)
    dq = rng.uniform(1e-6, 1e-5, size=len(X))
    v = rng.standard_normal((3, N, N, N))
    return X, f, dq, v, prm


def test_int64_index_arrays_give_the_int32_bytes():
    # the kernel dispatches on the index dtype: int64 columns and row
    # pointers must sum the same terms in the same order
    X, f, dq, v, prm = _model_arrays()
    S = coupling_matrix(X, prm)
    assert S.indices.dtype == np.int32 and S.indptr.dtype == np.int32
    S64 = dataclasses.replace(S, indices=S.indices.astype(np.int64),
                              indptr=S.indptr.astype(np.int64))
    assert (spread_force(f, S64, dq, prm).tobytes()
            == spread_force(f, S, dq, prm).tobytes())
    assert (interpolate_velocity(v, S64).tobytes()
            == interpolate_velocity(v, S).tobytes())


def test_non_contiguous_velocity_gives_the_contiguous_bytes():
    X, _, _, v, prm = _model_arrays()
    S = coupling_matrix(X, prm)
    want = interpolate_velocity(v, S).tobytes()
    wide = np.zeros(v.shape[:3] + (2 * prm.N,))
    wide[..., ::2] = v
    for u in (np.asfortranarray(v), wide[..., ::2]):
        assert not u.flags.c_contiguous
        assert interpolate_velocity(u, S).tobytes() == want


def test_mismatched_sizes_raise_before_the_kernel_reads():
    # the kernel indexes its input vector unchecked, as scipy's products
    # did after their dimension check
    X, f, dq, v, prm = _model_arrays()
    S = coupling_matrix(X, prm)
    with pytest.raises(ValueError):
        interpolate_velocity(v[:, :8, :8, :8], S)
    for d in (-1, 1):
        m = len(X) + d
        f_d = np.resize(f, (m, 3))
        dq_d = np.resize(dq, m)
        for args in ((f_d, dq), (f, dq_d), (f_d, dq_d)):
            with pytest.raises(ValueError):
                spread_force(args[0], S, args[1], prm)


def test_spread_rejects_an_out_it_cannot_add_into_in_place():
    # the kernel adds into F[c].reshape(-1); a reshape that copies, another
    # dtype or another lattice would drop the force or write out of bounds
    X, f, dq, v, prm = _model_arrays()
    S = coupling_matrix(X, prm)
    big = np.zeros((3, 16, 16, 32))
    for out in (v.astype(np.float32), big[..., ::2], np.zeros((3, 8, 8, 8))):
        with pytest.raises(ValueError, match="out must be"):
            spread_force(f, S, dq, prm, out=out)
    assert not big.any()


def test_spread_into_held_r_memory_at_n64():
    # the kernel adds S^T v straight into r's components; a fresh N^3 sum
    # per component, two at once on two lanes, took 4.58 MB
    X, f, dq, r, prm = _model_arrays(64)
    S = coupling_matrix(X, prm)
    spread_force(f, S, dq, prm, out=r)  # warm
    tracemalloc.start()
    try:
        spread_force(f, S, dq, prm, out=r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak


def test_malformed_csr_raises_where_it_is_made():
    # the kernels index by S's arrays unchecked: a column of N^3 wrote one
    # float past the buffer, and one of 10^9 crashed the process in a product
    X, _, _, _, prm = _model_arrays()
    S = coupling_matrix(X, prm)
    n = prm.N**3

    def column(value):
        indices = S.indices.copy()
        indices[100] = value
        return {"indices": indices}

    descending = S.indptr.copy()
    descending[5] = descending[7]
    cases = [
        ("indices", column(n)),
        ("indices", column(10**9)),
        ("indices", column(-1)),
        ("indices, indptr", {"indices": S.indices.astype(np.int64)}),
        ("indices, indptr", {"indices": S.indices.astype(np.int16),
                             "indptr": S.indptr.astype(np.int16)}),
        ("data", {"data": S.data.astype(np.float32)}),
        ("data", {"data": S.data.reshape(-1, 64)}),
        ("indptr", {"indptr": S.indptr[:-1]}),
        ("indptr", {"indptr": S.indptr + 64}),
        ("indptr", {"indptr": descending}),
        ("indices, data", {"indices": S.indices[:-1], "data": S.data[:-1]}),
    ]
    for field, change in cases:
        with pytest.raises(ValueError, match=f"^CSR {field}:"):
            dataclasses.replace(S, **change)


def test_kernels_that_overwrite_y_fail_the_load_check():
    # spreading relies on csc_matvec adding into y, which scipy does not
    # document for its private kernels
    real = coupling._sparsetools

    def overwrite(*args):
        args[-1][:] = 0.0
        real.csc_matvec(*args)

    coupling._check_kernels(real)
    stub = types.SimpleNamespace(csr_matvec=real.csr_matvec, csc_matvec=overwrite)
    with pytest.raises(ImportError, match=f"scipy {importlib.metadata.version('scipy')}"):
        coupling._check_kernels(stub)
