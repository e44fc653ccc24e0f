import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from probdigit import (
    DigitRemap,
    Geometric,
    Identity,
    MixedHeadTail,
    PairSwap,
    TablePermutation,
)


@pytest.fixture(scope="session")
def half():
    return Geometric(Fraction(1, 2))


@pytest.fixture(scope="session")
def twothirds():
    return Geometric(Fraction(2, 3))


@pytest.fixture(scope="session")
def mixed():
    return MixedHeadTail((Fraction(1, 3), Fraction(1, 5)), Fraction(1, 2))


@pytest.fixture(scope="session")
def swap_remap(half, twothirds):
    """The worked pair-swap example: halving source, thirds target."""
    return DigitRemap(half, twothirds, PairSwap())


@pytest.fixture(scope="session")
def identity_remap(half):
    return DigitRemap(half, half, Identity())


@pytest.fixture(scope="session")
def table_remap(half, mixed):
    return DigitRemap(half, mixed, TablePermutation((3, 1, 2)))


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_bounded():
    """Run `python <args>` in a child process, killed after `timeout` seconds.

    A call that regresses into an endless search then fails this test with
    subprocess.TimeoutExpired instead of stalling the whole suite.
    """

    def run(*args: str, timeout: float = 20) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
        )

    return run
