"""The golden trajectory: every change is held to the recorded numbers.

On the build that recorded them (same numpy, scipy and runtime SIMD
extensions) X must match bit for bit, and so must the digests of u, p, the
coefficient fields and the geometry. Another build may sum in another order,
so there X is held to a relative 1e-12 and the order pins in test_shell.py
and test_geometry.py name the sum that moved.
"""

import numpy as np
import pytest

import make_golden


@pytest.fixture(scope="module")
def golden():
    with np.load(make_golden.GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("closure", make_golden.CLOSURES)
@pytest.mark.parametrize("N, steps", make_golden.RUNS)
def test_golden_trajectory(golden, N, steps, closure):
    key = make_golden.key(N, closure)
    X, digests = make_golden.run(N, steps, closure)
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
