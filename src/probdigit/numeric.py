"""Float fast path: vectorized remap evaluation, Monte Carlo integration and
sampled-path log-derivative statistics.

Nothing here feeds the exact rational contracts.  Results carry ordinary
floating-point error and exist for plot data, for spot-checking the closed
forms from an independent code path, and for law-of-large-numbers style
diagnostics (sampled log-derivative paths against the exact law of
`probdigit.derivative.expected_log_ratio`).  All randomness is drawn from
seeded generators, so every output is reproducible.

Value-only evaluation stops reading a point's digits once its image cylinder
is narrower than float resolution.  It writes the point's value then and
freezes the point in place; the arrays are compacted to the live points only
once a quarter of them are frozen, not at every step.  The Monte Carlo and
log-path routines draw their uniforms in chunks of about `_CHUNK` values, so
their working memory is bounded apart from the one result array.  Successive
draws from a seeded generator continue one stream, so chunking leaves every
seeded draw unchanged.

A point's digit comes from one table of `_BUCKETS` equal buckets of [0, 1),
built once per remap, where a bucket inside one digit's cylinder names that
digit.  The rest are flagged: a bucket with a digit boundary inside, one
reaching the last boundary of the tables, bucket 0 and a sentinel past the
end, onto which clipped bucket numbers send points at or past 1, NaN and
infinities, whatever the cast gives them.  Flagged points alone are clamped
below 1 and found by binary search over the prefix table, which built the
table at each bucket's two ends, so every digit up to the tables' last one
is the one the search would give.

The tables hold the digits up to `DIGIT_CAP` (further if the remap's closed
form starts later).  A point past their last boundary, which on a slow tail
is most points (q**64 of the mass, about 0.94 for `Geometric(999/1000)`),
takes its digit from the source prefix form in floats, and that digit's
masses, prefixes and log ratio from the closed form of its residue class.
Rescaling x to (x - prefix) / p_n keeps x's absolute rounding, so the
shifted point is known only to about ulp(1) / p_n, and its later digits are
coarse when p_n is small.  That is no worse than the input's own resolution:
x names a point only to within ulp(1), and that interval shifts to one
ulp(1) / p_n wide, which the image cylinder of digit n scales back down.
A point within rounding of a digit boundary, where the remap jumps, may take
either one-sided value.  Grids i / count hold such points when count is a
multiple of a power of a ratio's denominator (500 = 4 * 125, ratio 3/5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import DIGIT_CAP, constant_point, log_rational
from .remap import DigitRemap

_BELOW_ONE = np.nextafter(1.0, 0.0)
_RESOLUTION = 2.0**-53  # an image cylinder this narrow pins a value in [0, 1) to float precision
_CHUNK = 1 << 16  # uniforms drawn per step of the Monte Carlo and log-path loops
# equal buckets of [0, 1) in the digit lookup; a power of two, so x * _BUCKETS is exact
_BUCKETS = 1 << 13
_COMPACT_SHARE = 0.25  # share of frozen points at which the value loop compacts its arrays


@dataclass(frozen=True)
class _FloatTables:
    prefix: np.ndarray       # source prefix(1..size+1), size = len(mass)
    mass: np.ndarray         # source p(1..size)
    image_prefix: np.ndarray  # target prefix(phi(n)) for n = 1..size
    image_mass: np.ndarray    # target p(phi(n))
    log_ratio: np.ndarray     # ln(image_mass / mass)
    tail_const: float         # image value of the all-ones continuation
    bucket_index: np.ndarray  # each bucket's digit index or -1 (flagged), then a -1 sentinel
    # past the tables: ln coeff and ln ratio of the source prefix form, which
    # name a point's digit n, and the residue classes n = start + r + k * period
    log_prefix_form: tuple[float, float]
    start: int
    period: int
    # row r: ln of the source tail mass and mass, the target tail mass and mass
    # at phi, and ln of the mass ratio, at digit start + r
    class_logs: np.ndarray
    class_slopes: np.ndarray  # what each column of class_logs gains per step k along a class


def _tables(remap: DigitRemap) -> _FloatTables:
    """The remap's float tables, built on first use and then kept on the
    remap the way its cached properties are, so chunked calls build them once."""
    kept = vars(remap)
    if "_float_tables" not in kept:
        kept["_float_tables"] = _build_tables(remap)
    return kept["_float_tables"]


def _build_tables(remap: DigitRemap) -> _FloatTables:
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    start, period, q, t, rows = remap._classes
    size = max(DIGIT_CAP, start - 1)  # every digit past the tables is in closed form
    # each digit's integer triple (a, c, e) carries prefix a/e and mass c/e
    # as floats, each one int/int division, rounded once as float() rounds a Fraction
    entries = [src._int_entry(n) for n in range(1, size + 2)]
    images = [tgt._int_entry(phi.apply(n)) for n in range(1, size + 1)]
    prefix = np.array([entry[3] for entry in entries])
    mass = np.array([entry[4] for entry in entries[:-1]])
    image_prefix = np.array([entry[3] for entry in images])
    image_mass = np.array([entry[4] for entry in images])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(image_mass) - np.log(mass)
    # a mass that underflows a float takes its ratio's log from the exact ratio
    for i in np.flatnonzero(~np.isfinite(log_ratio)).tolist():
        (_, c, e, _, _), (_, C, E, _, _) = entries[i], images[i]
        log_ratio[i] = log_rational(Fraction(C * e, E * c))
    tail_const = float(constant_point(tgt, phi.apply(1)))
    # bucket b holds [b, b + 1) / _BUCKETS; its two ends, looked up the slow way,
    # say whether it spans a digit boundary, and one that reaches the last
    # boundary is flagged too, so that the fallback sees every point past it
    low = np.arange(_BUCKETS) / _BUCKETS
    high = np.nextafter(low + 1.0 / _BUCKETS, 0.0)
    first = _searched_index(prefix, low)
    plain = (_searched_index(prefix, high) == first) & (high < prefix[-1])
    plain[0] = False  # where a cast may send NaN and infinities
    bucket_index = np.append(np.where(plain, first, -1), -1)
    class_logs = np.array([
        [log_rational(Fraction(*v)) for v in ((s, e), (c, e), (S, E), (C, E), (C * e, E * c))]
        for c, s, e, C, S, E in rows[start - 1 :]
    ])
    class_slopes = np.array([log_rational(r) for r in (q, q, t, t, t / q)])
    arrays = (prefix, mass, image_prefix, image_mass, log_ratio)
    for array in (*arrays, bucket_index, class_logs, class_slopes):
        array.setflags(write=False)  # every later call on the remap shares them
    return _FloatTables(
        *arrays, tail_const, bucket_index, src._digit_search[:2],
        start, period, class_logs, class_slopes,
    )


def _searched_index(prefix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Digit index (digit - 1) of each x by binary search, clamped at the last
    table digit."""
    return np.minimum(np.searchsorted(prefix, x, side="right"), prefix.size - 1) - 1


def _digit_index(t: _FloatTables, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly `_searched_index(t.prefix, fmin(x, _BELOW_ONE))` for a flat
    array x of points at or above 0, +inf or NaN, and the positions of the
    points at or past the last table boundary, whose digit that index clamps.
    The clamped points are written back into x.  Casting a NaN or infinite x
    warns unless invalid errors are ignored, as `remap_values` does."""
    bucket = np.multiply(x, _BUCKETS, out=np.empty(x.shape, np.intp), casting="unsafe")
    idx = t.bucket_index.take(bucket, mode="clip")
    flagged = np.flatnonzero(idx < 0)
    if not flagged.size:
        return idx, flagged
    x[flagged] = clamped = np.fmin(x.take(flagged), _BELOW_ONE)
    idx[flagged] = _searched_index(t.prefix, clamped)
    return idx, flagged[clamped >= t.prefix[-1]]


def _past_tables(t: _FloatTables, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Source prefix, source mass, image prefix, image mass and log ratio at
    the digits of points x past the tables.

    The digit inverts the source prefix form 1 - x = coeff * ratio**n in
    floats.  Digit n = start + r + k * period of class r reads each column
    from the logs at the class's first digit plus k times its slope (the
    family ratios to the power period, or for the log ratio their ratio), as
    `expected_log_ratio` does.  The prefix is capped at x, so the shifted
    point stays at or above 0 where rounding puts the boundary past it.
    """
    log_coeff, log_q = t.log_prefix_form
    n = np.floor((np.log1p(-x) - log_coeff) / log_q)
    # rounding can land below the first digit past the tables, and a ratio within
    # float precision of 1 can send n to inf
    n = np.fmin(np.fmax(n, t.mass.size + 1), 2.0**53)
    r = np.fmod(n - t.start, t.period)  # floats below 2**53 keep n, r and k exact
    logs = t.class_logs[r.astype(np.intp)]
    logs += ((n - t.start - r) / t.period)[:, None] * t.class_slopes
    tail, mass, image_tail, image_mass, ratio = logs.T
    return np.fmin(-np.expm1(tail), x), np.exp(mass), -np.expm1(image_tail), np.exp(image_mass), ratio


def _positions(live: np.ndarray | None, i: np.ndarray) -> np.ndarray:
    """Positions in the output of array entries i: i itself until the arrays
    are first compacted, so that no position array is held before then."""
    return i if live is None else live.take(i)


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
    later digits cannot move the value by more than that: its value is
    written then, and the point is frozen by setting its width to inf, which
    no later step can bring below 2**-53 again (inf times a mass is inf, or
    NaN when the mass underflowed to 0.0).  Frozen points ride along until
    they make up `_COMPACT_SHARE` of the arrays, which are then compacted to
    the live points in one pass.

    With `with_log_derivative` set, every point reads all `depth` digits and
    the log of the depth-`depth` cylinder derivative is accumulated along each
    decoded digit string; the pair (values, log_derivatives) is returned.

    Points are clamped to [0, 1), so -inf reads as 0 and +inf as the largest
    float below 1; a NaN point raises ValueError.  After that only the digit
    lookup's flagged fallback clamps, which sees every point a step shifts to
    1 or past it, inf or NaN.  Values are capped at that largest float too,
    since an image just below 1 can round up to 1.0.
    """
    t = _tables(remap)
    x = np.asarray(xs, dtype=float)
    if np.isnan(x).any():
        raise ValueError("points must not be NaN")
    x = np.clip(x, 0.0, _BELOW_ONE)
    shape = x.shape
    x = x.reshape(-1)
    y = np.zeros_like(x)
    prod = np.ones_like(x)
    dlog = np.zeros_like(x) if with_log_derivative else None
    out = None if with_log_derivative else np.empty_like(x)
    live = None  # positions in out of the arrays' points, from their first compaction on
    frozen = 0
    # a mass that underflows to 0.0 divides to inf, or to NaN at 0/0, and rounding can
    # shift a point to 1 or past it: the next lookup clamps them all, with fmin, NaN too
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(depth):
            idx, far = _digit_index(t, x)
            past = _past_tables(t, x.take(far)) if far.size else None

            def gather(table: np.ndarray, column: int) -> np.ndarray:
                # the table's values at idx, and past the tables its column of `past`
                values = table.take(idx)
                if past is not None:
                    values[far] = past[column]
                return values

            y += gather(t.image_prefix, 2) * prod
            prod *= gather(t.image_mass, 3)
            if dlog is not None:
                dlog += gather(t.log_ratio, 4)
            x -= gather(t.prefix, 0)
            x /= gather(t.mass, 1)
            if out is None:
                continue
            done = np.flatnonzero(prod < _RESOLUTION)
            if done.size:
                out[_positions(live, done)] = y.take(done) + prod.take(done) * t.tail_const
                prod[done] = np.inf  # frozen: never below _RESOLUTION again
                frozen += done.size
                if frozen >= _COMPACT_SHARE * prod.size:
                    keep = np.flatnonzero(np.isfinite(prod))
                    if not keep.size:
                        break  # every value is written
                    live, x, y, prod = _positions(live, keep), x.take(keep), y.take(keep), prod.take(keep)
                    frozen = 0
    if out is None:
        y += prod * t.tail_const
        out = y
    else:
        keep = np.flatnonzero(np.isfinite(prod))
        out[_positions(live, keep)] = y.take(keep) + prod.take(keep) * t.tail_const
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
) -> MonteCarloEstimate:
    """Plain Monte Carlo estimate of the integral over [0,1), float path only.

    Each sample reads at most `remap_values`' default depth of source digits.
    At least two samples are needed for the standard error.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    ys = np.empty(samples)  # allocated up front, so an impossible size fails at once
    for start in range(0, samples, _CHUNK):
        stop = min(start + _CHUNK, samples)
        ys[start:stop] = remap_values(remap, rng.random(stop - start))
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
        # row-major: the same draws as a (rows, depth) array
        ratio = _log_ratios(t, rng.random((stop - start) * depth))
        out[start:stop] = ratio.reshape(stop - start, depth).mean(axis=1)
    return out


def _log_ratios(t: _FloatTables, u: np.ndarray) -> np.ndarray:
    """ln(target.p(phi(n)) / source.p(n)) at the first digit n of each u."""
    idx, far = _digit_index(t, u)
    ratio = t.log_ratio.take(idx)
    if far.size:
        ratio[far] = _past_tables(t, u.take(far))[4]
    return ratio


def sample_rows(
    remap: DigitRemap, count: int, depth: int = 48
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic plot grid: x_i = i / count with the remapped value and log
    cylinder derivative at `depth`, either side's at a digit boundary (see the module)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    xs = np.arange(count, dtype=float) / count
    ys, dlog = remap_values(remap, xs, depth, with_log_derivative=True)
    return xs, ys, dlog
