import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codesmooth import codes as cd

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def golay():
    return cd.golay23()


@pytest.fixture(scope="session")
def hamming7():
    return cd.hamming(3)


def run_fresh(probe: str) -> str:
    """Run the Python source `probe` in a new interpreter that imports
    codesmooth from this checkout, and return what it prints."""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def seeded_rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[2024, tag]))


def random_fraction_array(rng, size, max_num=20, max_den=16):
    from fractions import Fraction
    nums = rng.integers(0, max_num, size)
    dens = rng.integers(1, max_den, size)
    out = np.empty(size, dtype=object)
    out[:] = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    return out


def random_linear_code(rng, n_max, n_min=4) -> cd.LinearCode:
    n = int(rng.integers(n_min, n_max + 1))
    k = int(rng.integers(1, n))
    return cd.random_linear(n, k, int(rng.integers(0, 2**31)))
