"""Float fast path: vectorized remap evaluation, Monte Carlo integration and
sampled-path log-derivative statistics.

Nothing here feeds the exact rational contracts.  Results carry ordinary
floating-point error and exist for plot data, for spot-checking the closed
forms from an independent code path, and for law-of-large-numbers style
diagnostics.  All randomness is drawn from seeded generators, so every output
is reproducible.  Digits above `DIGIT_CAP` are clamped to it everywhere: their
total source mass is a geometric sliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import constant_point
from .remap import DigitRemap

_BELOW_ONE = np.nextafter(1.0, 0.0)
DIGIT_CAP = 64


@dataclass(frozen=True)
class _FloatTables:
    prefix: np.ndarray       # source prefix(1..DIGIT_CAP+1)
    mass: np.ndarray         # source p(1..DIGIT_CAP)
    image_prefix: np.ndarray  # target prefix(phi(n)) for n = 1..DIGIT_CAP
    image_mass: np.ndarray    # target p(phi(n))
    log_ratio: np.ndarray     # ln(image_mass / mass)
    tail_const: float         # image value of the all-ones continuation


def _tables(remap: DigitRemap) -> _FloatTables:
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    prefix = np.array([float(src.prefix(n)) for n in range(1, DIGIT_CAP + 2)])
    mass = np.array([float(src.p(n)) for n in range(1, DIGIT_CAP + 1)])
    image = [phi.apply(n) for n in range(1, DIGIT_CAP + 1)]
    image_prefix = np.array([float(tgt.prefix(m)) for m in image])
    image_mass = np.array([float(tgt.p(m)) for m in image])
    log_ratio = np.log(image_mass) - np.log(mass)
    tail_const = float(constant_point(tgt, phi.apply(1)))
    return _FloatTables(prefix, mass, image_prefix, image_mass, log_ratio, tail_const)


def remap_values(
    remap: DigitRemap,
    xs: np.ndarray,
    depth: int = 48,
    with_log_derivative: bool = False,
):
    """Evaluate the remap at an array of points, digit by digit in floats.

    With `with_log_derivative` set, also accumulates the log of the
    depth-`depth` cylinder derivative along each decoded digit string and
    returns the pair (values, log_derivatives).
    """
    t = _tables(remap)
    x = np.clip(np.asarray(xs, dtype=float), 0.0, _BELOW_ONE).copy()
    y = np.zeros_like(x)
    prod = np.ones_like(x)
    dlog = np.zeros_like(x) if with_log_derivative else None
    for _ in range(depth):
        idx = np.minimum(np.searchsorted(t.prefix, x, side="right"), DIGIT_CAP) - 1
        y += t.image_prefix[idx] * prod
        prod *= t.image_mass[idx]
        if dlog is not None:
            dlog += t.log_ratio[idx]
        x = np.clip((x - t.prefix[idx]) / t.mass[idx], 0.0, _BELOW_ONE)
    y += prod * t.tail_const
    return (y, dlog) if with_log_derivative else y


class MonteCarloEstimate(NamedTuple):
    mean: float
    std_error: float
    samples: int
    seed: int


def monte_carlo_integral(
    remap: DigitRemap,
    samples: int = 1_000_000,
    seed: int = 1729,
    depth: int = 48,
) -> MonteCarloEstimate:
    """Plain Monte Carlo estimate of the integral over [0,1), float path only.

    At least two samples are needed for the standard error.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    ys = remap_values(remap, rng.random(samples), depth)
    return MonteCarloEstimate(
        float(ys.mean()), float(ys.std(ddof=1) / math.sqrt(samples)), samples, seed
    )


def log_derivative_paths(
    remap: DigitRemap,
    paths: int = 100,
    depth: int = 10_000,
    seed: int = 1729,
) -> np.ndarray:
    """Per-path mean log stretch factor over digits sampled from the source.

    Each path draws `depth` digits independently with the source masses and
    averages ln(target.p(phi(digit)) / source.p(digit)); the law of large
    numbers drives these toward the expected log ratio.
    """
    t = _tables(remap)
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((paths, depth))
    idx = np.minimum(np.searchsorted(t.prefix, u, side="right"), DIGIT_CAP) - 1
    return t.log_ratio[idx].mean(axis=1)


def log_ratio_moments(remap: DigitRemap) -> tuple[float, float]:
    """Source-weighted mean and standard deviation of the per-digit log ratio,
    truncated at DIGIT_CAP (the leftover mass is geometrically small)."""
    t = _tables(remap)
    mean = float(np.dot(t.mass, t.log_ratio))
    var = float(np.dot(t.mass, t.log_ratio**2)) - mean * mean
    return mean, math.sqrt(max(var, 0.0))


def sample_rows(
    remap: DigitRemap, count: int, depth: int = 48
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic plot grid: x_i = i / count with the remapped value and the
    log cylinder derivative at the configured depth."""
    if count < 1:
        raise ValueError("count must be at least 1")
    xs = np.arange(count, dtype=float) / count
    ys, dlog = remap_values(remap, xs, depth, with_log_derivative=True)
    return xs, ys, dlog
