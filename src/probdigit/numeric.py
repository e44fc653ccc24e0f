"""Float fast path: vectorized remap evaluation, Monte Carlo integration and
sampled-path log-derivative statistics.

Nothing here feeds the exact rational contracts.  Results carry ordinary
floating-point error and exist for plot data, for spot-checking the closed
forms from an independent code path, and for law-of-large-numbers style
diagnostics (sampled log-derivative paths against the exact law of
`probdigit.derivative.expected_log_ratio`).  All randomness is drawn from
seeded generators, so every output is reproducible.  Digits above
`DIGIT_CAP` are clamped to it everywhere.  That is harmless only when the
source mass past `DIGIT_CAP` is small: on a slow tail it is most of the mass
(q**64, about 0.94 for `Geometric(999/1000)`), and the float results are then
wrong by far more than their standard errors say.

Value-only evaluation stops reading a point's digits once its image cylinder
is narrower than float resolution, and the Monte Carlo and log-path routines
draw their uniforms in chunks of about `_CHUNK` values, so their working
memory is bounded apart from the one result array.  Successive draws from a seeded
generator continue one stream, so chunking leaves every seeded draw unchanged.

A point's digit comes from a table of `_BUCKETS` equal buckets of [0, 1),
built once per remap: its bucket names the digit at the bucket's low end and
the one digit boundary inside the bucket, so one exact comparison finishes
the lookup.  Only points in crowded buckets, which hold several boundaries
because digit masses there are below 1 / _BUCKETS (near 1 under a geometric
tail, for instance), are found by binary search over the prefix table.  The table is built from
that search at each bucket's two ends, so every digit is the one the search
would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DIGIT_CAP, constant_point, log_rational
from .remap import DigitRemap

_BELOW_ONE = np.nextafter(1.0, 0.0)
_RESOLUTION = 2.0**-53  # an image cylinder this narrow pins a value in [0, 1) to float precision
_CHUNK = 1 << 16  # uniforms drawn per step of the Monte Carlo and log-path loops
# equal buckets of [0, 1) in the digit lookup; a power of two, so x * _BUCKETS is exact
_BUCKETS = 1 << 12


@dataclass(frozen=True)
class _FloatTables:
    prefix: np.ndarray       # source prefix(1..DIGIT_CAP+1)
    mass: np.ndarray         # source p(1..DIGIT_CAP)
    image_prefix: np.ndarray  # target prefix(phi(n)) for n = 1..DIGIT_CAP
    image_mass: np.ndarray    # target p(phi(n))
    log_ratio: np.ndarray     # ln(image_mass / mass)
    tail_const: float         # image value of the all-ones continuation
    bucket_index: np.ndarray  # digit index at each bucket's low end, -1 for a crowded bucket
    bucket_next: np.ndarray   # the one prefix boundary inside each bucket, inf if none


def _tables(remap: DigitRemap) -> _FloatTables:
    """The remap's float tables, built on first use and then kept on the
    remap the way its cached properties are, so chunked calls build them once."""
    kept = vars(remap)
    if "_float_tables" not in kept:
        kept["_float_tables"] = _build_tables(remap)
    return kept["_float_tables"]


def _build_tables(remap: DigitRemap) -> _FloatTables:
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    prefix = np.array([float(src.prefix(n)) for n in range(1, DIGIT_CAP + 2)])
    mass = np.array([float(src.p(n)) for n in range(1, DIGIT_CAP + 1)])
    image = [phi.apply(n) for n in range(1, DIGIT_CAP + 1)]
    image_prefix = np.array([float(tgt.prefix(m)) for m in image])
    image_mass = np.array([float(tgt.p(m)) for m in image])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(image_mass) - np.log(mass)
    # a mass that underflows a float takes its ratio's log from the exact ratio
    for i in np.flatnonzero(~np.isfinite(log_ratio)).tolist():
        log_ratio[i] = log_rational(tgt.p(image[i]) / src.p(i + 1))
    tail_const = float(constant_point(tgt, phi.apply(1)))
    # bucket b holds [b, b + 1) / _BUCKETS; its two ends, looked up the slow way,
    # say how many digit boundaries it spans
    low = np.arange(_BUCKETS) / _BUCKETS
    first = _searched_index(prefix, low)
    spread = _searched_index(prefix, np.nextafter(low + 1.0 / _BUCKETS, 0.0)) - first
    bucket_index = np.where(spread <= 1, first, -1)
    bucket_next = np.where(spread == 1, prefix[first + 1], np.inf)
    arrays = (prefix, mass, image_prefix, image_mass, log_ratio)
    for array in (*arrays, bucket_index, bucket_next):
        array.setflags(write=False)  # every later call on the remap shares them
    return _FloatTables(*arrays, tail_const, bucket_index, bucket_next)


def _searched_index(prefix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Digit index (digit - 1) of each x, clamped at DIGIT_CAP, by binary search."""
    return np.minimum(np.searchsorted(prefix, x, side="right"), DIGIT_CAP) - 1


def _digit_index(t: _FloatTables, x: np.ndarray) -> np.ndarray:
    """Exactly `_searched_index(t.prefix, x)` for a flat array x in [0, 1)."""
    bucket = np.multiply(x, _BUCKETS, out=np.empty(x.shape, np.intp), casting="unsafe")
    # the comparison first, so that the lookup holds at most two full-size arrays at once
    above = x >= t.bucket_next.take(bucket)
    idx = t.bucket_index.take(bucket)
    idx += above
    crowded = np.flatnonzero(idx < 0)
    if crowded.size:
        idx[crowded] = _searched_index(t.prefix, x[crowded])
    return idx


def remap_values(
    remap: DigitRemap,
    xs: np.ndarray,
    depth: int = 48,
    with_log_derivative: bool = False,
):
    """Evaluate the remap at an array of points, digit by digit in floats.

    Reads at most `depth` digits of each point and closes the unread rest
    with the image of the all-ones continuation.  Without the log derivative
    a point stops once its image-cylinder width drops below 2**-53, since its
    later digits cannot move the value by more than that; the loop then
    carries only the points still being read.

    With `with_log_derivative` set, every point reads all `depth` digits and
    the log of the depth-`depth` cylinder derivative is accumulated along each
    decoded digit string; the pair (values, log_derivatives) is returned.

    Points are clamped to [0, 1), so -inf reads as 0 and +inf as the largest
    float below 1; a NaN point raises ValueError.  Values are capped at that
    largest float too, since an image just below 1 can round up to 1.0.
    """
    t = _tables(remap)
    x = np.asarray(xs, dtype=float)
    if np.isnan(x).any():
        raise ValueError("points must not be NaN")
    x = np.clip(x, 0.0, _BELOW_ONE)
    shape = x.shape
    x = x.reshape(-1)
    out = y = np.zeros_like(x)
    prod = np.ones_like(x)
    dlog = np.zeros_like(x) if with_log_derivative else None
    live = None if with_log_derivative else np.arange(x.size)  # positions of y in out
    # a mass that underflows to 0.0 divides to inf, or to NaN at 0/0; the fmin
    # below takes both back into [0, 1), since fmin, unlike clip, maps NaN to the bound
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(depth):
            idx = _digit_index(t, x)
            y += t.image_prefix[idx] * prod
            prod *= t.image_mass[idx]
            if dlog is not None:
                dlog += t.log_ratio[idx]
            x -= t.prefix[idx]
            x /= t.mass[idx]
            # x >= prefix[idx], so only the upper end needs clamping
            np.fmin(x, _BELOW_ONE, out=x)
            if live is not None:
                done = prod < _RESOLUTION
                if done.any():
                    out[live[done]] = y[done] + prod[done] * t.tail_const
                    keep = ~done
                    # one at a time, so at most one dropped array waits for release
                    live = live[keep]
                    x = x[keep]
                    y = y[keep]
                    prod = prod[keep]
    y += prod * t.tail_const
    if live is not None:
        out[live] = y
    np.fmin(out, _BELOW_ONE, out=out)
    out = out.reshape(shape)
    return (out, dlog.reshape(shape)) if with_log_derivative else out


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
    ys = np.empty(samples)  # allocated up front, so an impossible size fails at once
    for start in range(0, samples, _CHUNK):
        stop = min(start + _CHUNK, samples)
        ys[start:stop] = remap_values(remap, rng.random(stop - start), depth)
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
    if paths < 1 or depth < 1:
        raise ValueError("paths and depth must be at least 1")
    t = _tables(remap)
    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.empty(paths)
    rows = max(1, _CHUNK // depth)
    for start in range(0, paths, rows):
        stop = min(start + rows, paths)
        u = rng.random((stop - start, depth))
        idx = _digit_index(t, u.reshape(-1)).reshape(u.shape)
        out[start:stop] = t.log_ratio[idx].mean(axis=1)
    return out


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
