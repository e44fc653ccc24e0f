import os
import random
import resource
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


@pytest.fixture(scope="session")
def digits_with_distinct():
    """digits(k): 256 digits holding exactly k distinct ones, among 1..3k."""

    def digits(k: int) -> tuple[int, ...]:
        rng = random.Random(k)
        pool = rng.sample(range(1, 3 * k + 1), k)
        out = pool + rng.choices(pool, k=256 - k)
        rng.shuffle(out)
        return tuple(out)

    return digits


SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE_CAP = 3 * 2**30  # bytes of virtual memory a bounded child may map


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.fixture
def run_bounded():
    """Run `python <args>` in a child process, killed after `timeout` seconds
    and unable to map more than ADDRESS_SPACE_CAP bytes.

    A call that regresses into an endless search then fails this test with
    subprocess.TimeoutExpired instead of stalling the whole suite, and one
    that asks for a huge allocation gets MemoryError instead of the host's
    memory, whatever the host's overcommit policy.
    """

    def run(*args: str, timeout: float = 20) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            preexec_fn=_cap_address_space,
        )

    return run
