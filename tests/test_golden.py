"""The golden trajectory: every change is held to the recorded numbers.

On the build that recorded them (same numpy, scipy and runtime SIMD
extensions) X must match bit for bit, and so must the digests of u, p, the
coefficient fields and the geometry. Another build may sum in another order,
so there X is held to a relative 1e-12, and X - X0, u, p and each
coefficient field to their recorded summaries (largest magnitude, root mean
square and fixed samples), each relative to its own recorded largest
magnitude; the order pins in test_shell.py and test_geometry.py name the sum
that moved.
"""

import numpy as np
import pytest

import make_golden

#: how far another build's summaries may move, relative to each field's
#: largest magnitude: ten times the most any moved with numpy's AVX-512
#: dispatch turned off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
#: AVX512_SPR", numpy 2.4.6): 3.46e-15, a sample of p at N = 32 (leading
#: closure), while X - X0 did not move
SUMMARY_BOUND = 3.5e-14


@pytest.fixture(scope="module")
def golden():
    with np.load(make_golden.GOLDEN) as data:
        return dict(data)


def deviations(golden, key, summaries):
    """Each field's largest summary difference from the record, relative to
    its recorded largest magnitude (absolute for a field recorded as 0)."""
    moved = {}
    for name, values in summaries.items():
        scale = golden[f"{key}.max.{name}"] or 1.0
        moved[name] = max(np.abs(v - golden[f"{key}.{what}.{name}"]).max()
                          for what, v in values.items()) / scale
    return moved


@pytest.mark.parametrize("closure", make_golden.CLOSURES)
@pytest.mark.parametrize("N, steps", make_golden.RUNS)
def test_golden_trajectory(golden, N, steps, closure):
    key = make_golden.key(N, closure)
    X, digests, summaries = make_golden.run(N, steps, closure)
    want = golden[f"{key}.X"]
    recorded = {k: str(golden[f"build.{k}"]) for k in make_golden.build_info()}
    if recorded == make_golden.build_info():
        assert np.array_equal(X, want)
        moved = [name for name, d in digests.items()
                 if d != str(golden[f"{key}.sha256.{name}"])]
        assert not moved, f"digests differ: {moved}"
    else:
        print(f"not comparing bits: recorded on {recorded}, "
              f"running on {make_golden.build_info()}")
        assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()
    moved = deviations(golden, key, summaries)
    print(f"{key}: largest relative summary deviation "
          f"{max(moved.values()):.2e} ({max(moved, key=moved.get)})")
    far = {name: d for name, d in moved.items() if not d <= SUMMARY_BOUND}
    assert not far, f"summaries moved past {SUMMARY_BOUND:.1e}: {far}"
