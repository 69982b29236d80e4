"""Continuous-source pipelines: quantization, threshold binarization, the
closed-form Gaussian bounds, and seeded Monte Carlo cross-checks."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .probability import Alphabet, JointPMF

DEFAULT_SEED = 123456789
MIN_MC_SAMPLES = 10_000
# Most samples any sampler or Monte Carlo estimate draws; the whole-run
# times measured at it are in the README's "Size caps" table.
MAX_SAMPLES = 10_000_000
_BLOCK = 1 << 16
_pool = None  # the block pool, made on first use (see _map_blocks)
_pool_lock = threading.Lock()


class MonteCarloError(ValueError):
    pass


@dataclass(frozen=True)
class GaussianPairSource:
    """Zero-mean jointly Gaussian pair with common variance and correlation."""

    sigma2: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation rho must lie in [-1, 1], got {self.rho}")

    def sample(self, samples: int, seed: int = DEFAULT_SEED) -> np.ndarray:
        """(n, 2) draws from keyed per-block streams."""
        return _sample_pairs(samples, lambda b, u1, u2: self._pair(
            _block_rng(seed, b).standard_normal((len(u1), 2)), u1, u2))

    def _pair(self, z: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> None:
        """Write the source pair, from the first two columns of standard
        normals, into ``u1`` and ``u2``; overwrites ``z[:, 1]``."""
        sd = math.sqrt(self.sigma2)
        cross = math.sqrt(max(1.0 - self.rho * self.rho, 0.0))
        np.multiply(z[:, 0], sd, out=u1)
        np.multiply(z[:, 0], self.rho, out=u2)
        z1 = z[:, 1]
        z1 *= cross
        u2 += z1
        u2 *= sd


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # per-block keyed streams: results do not depend on evaluation order,
    # and parallel evaluation of blocks reproduces the sequential result
    key = int(seed) & 0xFFFFFFFFFFFFFFFF  # SeedSequence needs nonnegative entropy
    ss = np.random.SeedSequence(entropy=(key, int(block)))
    return np.random.Generator(np.random.Philox(ss))


def _map_blocks(fn, samples: int):
    """``fn(block, size)`` for each keyed block of ``samples`` draws, run on
    the process-wide pool, with the results yielded in block order.

    The pool has one worker thread per CPU the process may run on and is made
    on first use; numpy fills and reduces a block without holding the GIL.
    A forked child drops the inherited pool, whose threads it does not have,
    and makes its own.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _pool = ThreadPoolExecutor(cpus, thread_name_prefix="fcmac-block")
        pool = _pool
    return pool.map(lambda start: fn(start // _BLOCK, min(_BLOCK, samples - start)),
                    range(0, samples, _BLOCK))


def _drop_pool() -> None:
    # another thread may have held the lock at the fork
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    halfwidth: float   # 95% confidence half-width
    samples: int
    seed: int


def _cap_samples(samples: int) -> None:
    if not 0 <= samples <= MAX_SAMPLES:
        raise MonteCarloError(f"samples must be between 0 and {MAX_SAMPLES}, got {samples}")


def _sample_pairs(samples: int, write) -> np.ndarray:
    """(samples, 2) array filled one keyed block at a time by
    ``write(block, u1, u2)``, with ``u1`` and ``u2`` the block's two columns."""
    _cap_samples(samples)
    out = np.empty((samples, 2))

    def block(b: int, m: int) -> None:
        rows = out[b * _BLOCK:b * _BLOCK + m]
        write(b, rows[:, 0], rows[:, 1])

    for _ in _map_blocks(block, samples):
        pass
    return out


def _check_samples(samples: int) -> None:
    _cap_samples(samples)
    if samples < MIN_MC_SAMPLES:
        raise MonteCarloError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")


def _estimate(parts, samples: int, seed: int,
              cell_counts: np.ndarray | None = None) -> MonteCarloEstimate:
    """Mean of the per-sample errors with its 95% half-width, given each
    block's (error sum, squared-error sum, cell counts or None) in block
    order; the sums are added in that order and the counts to
    ``cell_counts``."""
    total = 0.0
    total_sq = 0.0
    for block_sum, block_sq, counts in parts:
        total += block_sum
        total_sq += block_sq
        if cell_counts is not None:
            cell_counts += counts
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MonteCarloEstimate(mean, 1.96 * math.sqrt(var / samples), samples, seed)


def centralized_bound(power: float, rho: float, sigma2: float = 1.0) -> float:
    """Distortion floor for a single encoder holding both sources:
    2 sigma^2 (1 - rho) / (1 + 2P)."""
    _check_gauss_args(power, rho, sigma2)
    return 2.0 * sigma2 * (1.0 - rho) / (1.0 + 2.0 * power)


def af_distortion(power: float, rho: float, sigma2: float = 1.0) -> float:
    """Uncoded (amplify-and-forward) mean squared error:
    2 sigma^2 (1 - rho) / (1 + 2P(1 - rho))."""
    _check_gauss_args(power, rho, sigma2)
    return 2.0 * sigma2 * (1.0 - rho) / (1.0 + 2.0 * power * (1.0 - rho))


def _check_gauss_args(power: float, rho: float, sigma2: float) -> None:
    if not (math.isfinite(power) and power >= 0):
        raise ValueError(f"power must be finite and nonnegative, got {power}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")


def monte_carlo_af(power: float, rho: float, sigma2: float = 1.0,
                   samples: int = 1_000_000, seed: int = DEFAULT_SEED,
                   ) -> MonteCarloEstimate:
    """Simulate uncoded transmission of the source difference and the linear
    conditional-mean estimate at the receiver; reports MSE with a 95% CI."""
    _check_gauss_args(power, rho, sigma2)
    _check_samples(samples)
    source = GaussianPairSource(sigma2, rho)
    scale = math.sqrt(power / sigma2) if power > 0 else 0.0
    var_s = 2.0 * sigma2 * (1.0 - rho)
    coef = scale * var_s / (scale * scale * var_s + 1.0)

    def block(b: int, m: int) -> tuple[float, float, None]:
        z = _block_rng(seed, b).standard_normal((m, 3))
        s, t = np.empty(m), np.empty(m)
        source._pair(z, s, t)
        s -= t                      # the difference u1 - u2
        np.multiply(s, scale, out=t)
        t += z[:, 2]                # the channel output y
        t *= coef
        s -= t
        np.square(s, out=s)         # the squared error
        return float(s.sum()), float(np.square(s, out=t).sum()), None

    return _estimate(_map_blocks(block, samples), samples, seed)


def binary_quadrant_pmf(rho: float) -> JointPMF:
    """Sign pair (w1, w2) of a standard bivariate Gaussian at correlation rho:
    P(same signs) = 1/4 + asin(rho)/(2 pi) per quadrant."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    same = 0.25 + math.asin(rho) / (2.0 * math.pi)
    diff = 0.25 - math.asin(rho) / (2.0 * math.pi)
    axes = (Alphabet("w1", ("0", "1")), Alphabet("w2", ("0", "1")))
    return JointPMF(axes, np.array([[same, diff], [diff, same]]))


def binary_pair_correlation(pmf: JointPMF) -> float:
    """Pearson correlation of a two-axis binary pmf, symbols read as 0/1
    in alphabet order."""
    if pmf.mass.shape != (2, 2):
        raise ValueError("need a 2x2 pmf")
    m = pmf.mass
    p1 = float(m[1, :].sum())
    p2 = float(m[:, 1].sum())
    cov = float(m[1, 1]) - p1 * p2
    denom = math.sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    if denom == 0:
        raise ValueError("degenerate marginal; correlation undefined")
    return cov / denom


@dataclass(frozen=True)
class GridQuantizer:
    """Uniform scalar quantizer with cells of equal width on [lo, hi]."""

    lo: float
    hi: float
    cells: int

    def __post_init__(self) -> None:
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound}")
        if self.hi <= self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"hi - lo must be finite, got [{self.lo}, {self.hi}]")
        cells = self.cells
        if isinstance(cells, bool) or not isinstance(cells, (int, np.integer)) or cells < 1:
            raise ValueError(f"cells must be an integer of at least 1, got {cells!r}")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.cells) + 0.5) * self.width

    def index(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        bad = ~np.isfinite(x)
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"sample at {idx} is not finite: {x[idx]}")
        raw = np.floor(self.cells * (x - self.lo) / (self.hi - self.lo))
        # clipped before the cast, which would wrap a sample beyond 2**63 cells
        return np.clip(raw, 0, self.cells - 1).astype(int)

    def cell_alphabet(self, name: str) -> Alphabet:
        return Alphabet(name, tuple(str(i + 1) for i in range(self.cells)))


def quantize_grid(q: GridQuantizer, sample_pairs: np.ndarray,
                  ) -> tuple[np.ndarray, JointPMF]:
    """Cell-index pairs plus the empirical (w1, w2) cell pmf for (n, 2) samples."""
    pts = np.asarray(sample_pairs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) sample array, got shape {pts.shape}")
    idx = q.index(pts)
    counts = _cell_counts(idx[:, 0] * q.cells + idx[:, 1], q.cells)
    pmf = JointPMF((q.cell_alphabet("w1"), q.cell_alphabet("w2")), counts / len(pts))
    return idx, pmf


def _cell_counts(key: np.ndarray, cells: int) -> np.ndarray:
    """cells x cells histogram of cell-pair keys ``i1 * cells + i2``."""
    return np.bincount(key, minlength=cells * cells).reshape(cells, cells)


def _check_offdiagonal_cells(cells: int) -> None:
    if cells < 2:
        raise ValueError("need at least two cells for an off-diagonal density")


def offdiagonal_cell_pmf(cells: int = 3, name1: str = "w1", name2: str = "w2",
                         ) -> JointPMF:
    """Exact cell pmf of the blocked-uniform pair density on the unit square
    (zero on the diagonal blocks, uniform elsewhere)."""
    _check_offdiagonal_cells(cells)
    mass = np.full((cells, cells), 1.0 / (cells * cells - cells))
    np.fill_diagonal(mass, 0.0)
    q = GridQuantizer(0.0, 1.0, cells)
    return JointPMF((q.cell_alphabet(name1), q.cell_alphabet(name2)), mass)


def _offdiagonal_block(cells: int, seed: int, block: int,
                       u1: np.ndarray, u2: np.ndarray) -> None:
    """Write one keyed block of draws from the blocked-uniform density on
    [0, 1]^2 into ``u1`` and ``u2``: a uniform off-diagonal cell pair, then a
    uniform point inside it."""
    width = 1.0 / cells
    # the off-diagonal cell pairs (i, j), row by row
    pairs = np.nonzero(~np.eye(cells, dtype=bool))
    rng = _block_rng(seed, block)
    which = rng.integers(0, len(pairs[0]), size=len(u1))
    offs = rng.random((len(u1), 2))
    for u, cell, off in zip((u1, u2), pairs, offs.T):
        # mode "clip" writes into u unbuffered; no index is out of range
        np.take(cell.astype(float), which, out=u, mode="clip")
        u += off
        u *= width


def sample_offdiagonal_uniform(cells: int, samples: int, seed: int = DEFAULT_SEED,
                               ) -> np.ndarray:
    """Draw (n, 2) points from the blocked-uniform density on [0, 1]^2."""
    _check_offdiagonal_cells(cells)
    return _sample_pairs(samples, lambda b, u1, u2: _offdiagonal_block(cells, seed, b, u1, u2))


def grid_distortion_closed_form(cells: int = 3) -> float:
    """Exact E| |U1 - U2| - |center gap| | for the blocked-uniform density.

    Conditioned on any off-diagonal cell pair the error is |V2 - V1| with
    V uniform on a cell width w, whose mean is w/3.
    """
    _check_offdiagonal_cells(cells)
    return 1.0 / (3.0 * cells)


def monte_carlo_grid_distortion(cells: int = 3, samples: int = 1_000_000,
                                seed: int = DEFAULT_SEED,
                                cell_counts: np.ndarray | None = None,
                                ) -> MonteCarloEstimate:
    """Empirical distortion of estimating |U1 - U2| by the quantized-cell
    center gap, under the blocked-uniform density. When ``cell_counts`` (a
    cells x cells integer array) is given, the same draws add their
    quantized cell-pair counts to it, as ``quantize_grid`` would count them."""
    _check_offdiagonal_cells(cells)
    _check_samples(samples)
    centers = GridQuantizer(0.0, 1.0, cells).centers
    # |center gap| of each cell pair, by key i1 * cells + i2
    gap = np.abs(centers[:, None] - centers[None, :]).ravel()

    def block(b: int, m: int) -> tuple[float, float, np.ndarray | None]:
        u1, u2 = np.empty(m), np.empty(m)
        _offdiagonal_block(cells, seed, b, u1, u2)
        # the cell indices GridQuantizer(0, 1, cells).index gives, then the
        # cell-pair key
        key = np.multiply(u1, cells)
        i2 = np.multiply(u2, cells)
        for i in (key, i2):
            np.floor(i, out=i)
            np.clip(i, 0, cells - 1, out=i)
        key *= cells
        key += i2
        key = key.astype(np.intp)
        np.subtract(u1, u2, out=u1)
        np.abs(u1, out=u1)
        u1 -= np.take(gap, key, out=u2)
        np.abs(u1, out=u1)          # the error
        counts = None if cell_counts is None else _cell_counts(key, cells)
        return float(u1.sum()), float(np.square(u1, out=u2).sum()), counts

    return _estimate(_map_blocks(block, samples), samples, seed, cell_counts)


def lipschitz_budget(alpha: float, target_d: float) -> float:
    """Per-pair quantization budget: a function moving at most alpha times
    the source distance meets distortion D when pairs are within D/alpha."""
    if not alpha > 0:                   # refuses NaN as well
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not target_d >= 0:
        raise ValueError(f"target distortion must be nonnegative, got {target_d}")
    return target_d / alpha
