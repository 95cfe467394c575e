"""Golden reports: the sha256 of four reports at seed 0, pinned per library version.

A report's ``version`` pins the numerical policy, so an output digit that
moves without a version bump fails here; a change that moves one bumps
``__version__`` and pins the new hashes under it.  The hashes hold for one
NumPy build and one BLAS thread count: NumPy rounds some products
differently by array length, and a threaded BLAS may sum in another order.
So the reports are written by a fresh interpreter pinned to the recorded
thread count, and the test skips on another NumPy.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from cvnnuniv import __version__

# report -> CLI arguments; each is run with --seed 0 --out <report>.json
REPORTS = {
    "classify-ratio": ["classify", "--activation", "ratio"],
    "approximate-shallow-ratio-cone": ["approximate", "--activation", "ratio", "--target", "cone", "--degree", "6"],
    "invariants-sin-dbar-L3": ["invariants", "--activation", "sin", "--kind", "dbar", "--layers", "3"],
    # the one golden whose refit takes the factored (full-rank) Lawson solve
    "approximate-deep-ratio-cone": ["approximate", "--activation", "ratio", "--target", "cone", "--deep", "--layers", "2"],
}

GOLDEN = {
    "0.3.0": {
        "numpy": "2.4.6",
        "blas_threads": 1,
        "sha256": {
            "classify-ratio": "36a551af85a61c413c8f02cac341701d2cea124e1a8de6b2652c8249ba583863",
            "approximate-shallow-ratio-cone": "eaff23c8e708c64593a28526623fee72ffe1c6205240d40f065f70ed0a0dc415",
            "invariants-sin-dbar-L3": "35efbc3d767d7e31ba3eda40861530a513139041f3dfa680d25a64f266495e64",
            "approximate-deep-ratio-cone": "391c4a076dbd1dfdf5e971230b428beae522447422cca972b5c9d9502c9c31a1",
        },
    },
    # pinned before the deep golden existed
    "0.2.0": {
        "numpy": "2.4.6",
        "blas_threads": 1,
        "sha256": {
            "classify-ratio": "987bbd9a0a4bd50839f577e4f07ab73cd02570114bb0894f8a9c5cb6a82edf45",
            "approximate-shallow-ratio-cone": "b8b6e934538b74dbeaab2039fa45b7b9600ad2c0e5c9be500259a322788aac3d",
            "invariants-sin-dbar-L3": "97fa866535df0e85009d9f7c7754363758651909a137417faa6c8a56fc33f2e5",
        },
    },
}


def test_reports_match_the_goldens_of_their_version(tmp_path, run_python):
    assert __version__ in GOLDEN, f"no golden reports are pinned for version {__version__}"
    pinned = GOLDEN[__version__]
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"the goldens of {__version__} hold for NumPy {pinned['numpy']}, not {np.__version__}")
    threads = str(pinned["blas_threads"])
    code = (
        "import os, sys\n"
        f"os.environ.update(OMP_NUM_THREADS={threads!r}, OPENBLAS_NUM_THREADS={threads!r})\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "from cvnnuniv import cli\n"
        f"for name, argv in {REPORTS!r}.items():\n"
        "    if cli.run_cli(argv + ['--seed', '0', '--out', name + '.json']) != 0:\n"
        "        sys.exit(f'{name} failed')\n"
    )
    assert run_python(code, timeout=120)
    got = {name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() for name in REPORTS}
    assert got == pinned["sha256"]


def test_the_package_and_pyproject_state_one_version():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^version = "([^"]*)"$', pyproject) == [__version__]
