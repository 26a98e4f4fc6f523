"""The golden hashes at every lower SIMD dispatch level the host has.

numpy picks its SIMD loops at import time from the CPU features it finds;
``NPY_DISABLE_CPU_FEATURES`` switches dispatched ones off.  The codec's
bytes must not depend on that choice, so the golden stream,
reconstruction, kernel-hash and synthetic-clip tests, and the tests that
kernels and ops cut into blocks give the bits of one block at a time,
are rerun in a fresh interpreter once per lower level.  Each case is
named after the highest level it leaves on, so the test ids say which
levels were covered.  Baseline features are compiled in and cannot be
switched off, and a level the host lacks cannot be emulated: only
dispatch targets found here are disabled, from the top down, because a
higher target implies the lower ones.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TESTS = (
    "tests/test_pipeline.py::test_golden_bitstream_and_reconstruction",
    "tests/test_detmath.py::test_kernels_match_golden_hashes",
    "tests/test_detmath.py::test_blocked_kernels_equal_their_pieces",
    "tests/test_detmath.py::test_blocked_kernels_keep_the_input_shape",
    "tests/test_tensor_ops.py::test_blocked_ops_equal_their_pieces",
    "tests/test_tensor_ops.py::"
    "test_gelu_with_and_without_tape_gives_the_whole_input_bits",
    "tests/test_video.py::test_synth_matches_golden_hashes",
    "tests/test_tensor_ops.py::"
    "test_conv2d_upsample_bitwise_equal_to_two_op_chain",
)

# Dispatch targets numpy was built with (lowest first) that the host has.
FOUND = [target for target in getattr(_umath, "__cpu_dispatch__", ())
         if _umath.__cpu_features__.get(target)]

# Runs the golden tests only after checking that the level took effect.
_RUN_AT_LEVEL = """
import sys
try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:
    from numpy.core import _multiarray_umath as _umath
still_on = [t for t in sys.argv[1].split() if _umath.__cpu_features__.get(t)]
if still_on:
    sys.exit(f"NPY_DISABLE_CPU_FEATURES left {still_on} enabled")
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def _levels():
    if not FOUND:
        return [pytest.param((), marks=pytest.mark.skip(
            reason="numpy finds no dispatch target above its baseline "
                   "on this host"))]
    return [pytest.param(tuple(FOUND[keep:]),
                         id=f"up-to-{FOUND[keep - 1]}" if keep else
                         "baseline-only")
            for keep in range(len(FOUND) - 1, -1, -1)]


@pytest.mark.parametrize("disabled", _levels())
def test_golden_hashes_hold_at_lower_dispatch_level(disabled):
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AT_LEVEL, " ".join(disabled),
         *GOLDEN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, (
        f"with {' '.join(disabled)} disabled:\n{run.stdout}\n{run.stderr}")
