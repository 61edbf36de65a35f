"""Rerun tests with numpy's wider SIMD targets switched off.

The vectorized kernels' bits rest on numpy rounding an elementwise call
(a complex multiply above all) the same way at any row count and offset.
How numpy rounds depends on the SIMD target it dispatches: the AVX2 and
AVX-512 loops fuse a complex multiply's products, the baseline loops do
not.  This script reruns pytest once per mode, with
``NPY_DISABLE_CPU_FEATURES`` set:

* ``no-avx512``: every AVX-512 target disabled;
* ``no-avx2``: the AVX2 target disabled as well, leaving the baseline.

The names come from numpy's own dispatch list, limited to the targets this
CPU has: numpy warns about a name it does not dispatch and refuses to
disable its baseline.  Each run first prints the state of every dispatch
target, so the log shows what ran.

Usage::

    PYTHONPATH=src python scripts/simd_matrix.py [pytest arguments...]

Without arguments it runs the kernel property and conformance tiers.
Exits non-zero if any run fails.
"""

from __future__ import annotations

import os
import subprocess
import sys

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

DEFAULT_TESTS = (
    "tests/property/test_kernel_properties.py",
    "tests/conformance/test_kernel_conformance.py",
)

#: Below AVX-512: the x86-64-v3 level (numpy >= 2.4) or its parts.
AVX2_TARGETS = ("X86_V3", "AVX", "F16C", "FMA3", "AVX2")

SHOW_TARGETS = (
    "from numpy._core._multiarray_umath import "
    "__cpu_dispatch__ as d, __cpu_features__ as f; "
    "print('dispatch targets:', {name: f[name] for name in d})"
)


def _present(names) -> list[str]:
    return [name for name in names if __cpu_features__.get(name)]


def modes() -> dict[str, list[str]]:
    """The targets each mode disables, in numpy's dispatch order."""
    avx512 = _present(
        name for name in __cpu_dispatch__
        if name == "X86_V4" or name.startswith("AVX512")
    )
    avx2 = _present(name for name in __cpu_dispatch__ if name in AVX2_TARGETS)
    return {"no-avx512": avx512, "no-avx2": avx512 + avx2}


def main(argv: list[str]) -> int:
    tests = argv or list(DEFAULT_TESTS)
    failed = []
    for mode, disabled in modes().items():
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        print(f"== {mode}: NPY_DISABLE_CPU_FEATURES={' '.join(disabled)!r}",
              flush=True)
        subprocess.run([sys.executable, "-c", SHOW_TARGETS], env=env, check=True)
        run = subprocess.run([sys.executable, "-m", "pytest", *tests], env=env)
        if run.returncode:
            failed.append(mode)
    if failed:
        print(f"failed under: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
