"""Positive-measure observation sets, field restriction, and measurement
noise.

The observation set E is a finite union of disjoint intervals mapped to
grid node indices; noise is additive complex Gaussian scaled by the
field's max modulus, generated by a counter-based RNG (Philox) so outputs
are reproducible across platforms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, GridMismatchError
from .spectral import Grid1D, _freeze

# node-capture comparisons use a relative fudge so interval endpoints that
# coincide with nodes are not lost to floating-point dust
_EDGE_REL = 1e-9


@dataclass(frozen=True)
class ObservationMask:
    """Union of disjoint intervals inside [0, L] with the captured node
    indices and the exact Lebesgue measure."""

    grid: Grid1D
    intervals: tuple
    indices: np.ndarray
    measure: float

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(np.asarray(self.indices, dtype=int)))
        object.__setattr__(self, "intervals", tuple(tuple(iv) for iv in self.intervals))
        if self.measure <= 0.0:
            raise EmptyMaskError("observation set must have positive measure")
        if self.indices.size == 0:
            raise EmptyMaskError("observation set captures no grid node")

    @property
    def n_nodes(self) -> int:
        return int(self.indices.size)

    def restrict(self, rows: np.ndarray) -> np.ndarray:
        """Column restriction of (time x space) samples to the masked nodes."""
        return np.asarray(rows)[..., self.indices]


@dataclass(frozen=True)
class ObservedData:
    """Masked field samples, possibly noisy: one row per time of ``tg`` and
    one column per captured node of ``mask``."""

    values: np.ndarray
    mask: ObservationMask
    tg: "TimeGrid"
    noise_level: float
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.tg.n_t, self.mask.n_nodes):
            raise GridMismatchError(
                f"data shape {vals.shape} vs {self.tg.n_t} times x {self.mask.n_nodes} nodes"
            )
        object.__setattr__(self, "values", _freeze(vals))
        if self.noise_level < 0.0:
            raise GridMismatchError("noise level must be nonnegative")


def make_mask(intervals, grid: Grid1D) -> ObservationMask:
    """Build the observation set from (lo, hi) interval pairs.

    Node j is captured iff lo <= x_j <= hi for some interval (up to a
    relative endpoint fudge of 1e-9 h).  Overlapping intervals and
    intervals leaving [0, L] are rejected; so is a mask that captures no
    node, which signals a grid too coarse for the requested set.
    """
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
    if not ivs:
        raise EmptyMaskError("no intervals given")
    for lo, hi in ivs:
        if not (0.0 <= lo < hi <= grid.L):
            raise GridMismatchError(f"interval ({lo}, {hi}) outside [0, {grid.L}]")
    for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
        if lo2 < hi1:
            raise GridMismatchError(
                f"intervals ({lo1}, {hi1}) and ({lo2}, {hi2}) overlap"
            )
    eps = _EDGE_REL * grid.h
    x = grid.nodes
    captured = np.zeros(grid.m, dtype=bool)
    for lo, hi in ivs:
        captured |= (x >= lo - eps) & (x <= hi + eps)
    indices = np.nonzero(captured)[0]
    measure = sum(hi - lo for lo, hi in ivs)
    if indices.size == 0:
        raise EmptyMaskError(
            f"no node falls inside {ivs} at spacing h={grid.h:.4g}"
        )
    return ObservationMask(grid, ivs, indices, measure)


def observe(field, mask: ObservationMask, noise_level: float = 0.0,
            seed: int = 0) -> ObservedData:
    """Restrict a space-time field to (0,T) x E and add measurement noise.

    Noise is noise_level * max|field| * standard complex Gaussian per entry
    (independent real and imaginary parts of variance 1/2), deterministic
    in the seed.
    """
    if field.grid != mask.grid:
        raise GridMismatchError("field and mask live on different grids")
    vals = mask.restrict(field.values).copy()
    if noise_level > 0.0:
        scale = noise_level * float(np.max(np.abs(field.values)))
        rng = np.random.Generator(np.random.Philox(seed))
        noise = rng.standard_normal(vals.shape) + 1j * rng.standard_normal(vals.shape)
        vals += scale * noise / math.sqrt(2.0)
    return ObservedData(vals, mask, field.tg, float(noise_level), int(seed))


def masked_norm(mask: ObservationMask, row: np.ndarray) -> float:
    """Discrete L2(E) norm with the same weight h as the interior product."""
    return math.sqrt(mask.grid.h) * float(np.linalg.norm(np.asarray(row)))
