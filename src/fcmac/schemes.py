"""Continuous-source pipelines: quantization, threshold binarization, the
closed-form Gaussian bounds, and seeded Monte Carlo cross-checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import Alphabet, JointPMF

DEFAULT_SEED = 123456789
MIN_MC_SAMPLES = 10_000
# Largest sample count any sampler draws. Whole CLI runs at this count, on a
# 2-vCPU Xeon VM with one BLAS thread: gauss-diff 0.9-1.1 s, uniform-grid
# 0.7-0.8 s.
MAX_SAMPLES = 10_000_000
_BLOCK = 1 << 16


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
        _cap_samples(samples)
        out = np.empty((samples, 2))
        done = 0
        for b, m in _blocks(samples):
            z = _block_rng(seed, b).standard_normal((m, 2))
            out[done:done + m, 0], out[done:done + m, 1] = self._pair(z)
            done += m
        return out

    def _pair(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The source pair from the first two columns of standard normals."""
        sd = math.sqrt(self.sigma2)
        cross = math.sqrt(max(1.0 - self.rho * self.rho, 0.0))
        return sd * z[:, 0], sd * (self.rho * z[:, 0] + cross * z[:, 1])


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # per-block keyed streams: results do not depend on evaluation order,
    # and parallel evaluation of blocks reproduces the sequential result
    key = int(seed) & 0xFFFFFFFFFFFFFFFF  # SeedSequence needs nonnegative entropy
    ss = np.random.SeedSequence(entropy=(key, int(block)))
    return np.random.Generator(np.random.Philox(ss))


def _blocks(total: int):
    b = 0
    done = 0
    while done < total:
        m = min(_BLOCK, total - done)
        yield b, m
        b += 1
        done += m


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    halfwidth: float   # 95% confidence half-width
    samples: int
    seed: int


def _cap_samples(samples: int) -> None:
    if samples > MAX_SAMPLES:
        raise MonteCarloError(f"samples must be at most {MAX_SAMPLES}, got {samples}")


def _check_samples(samples: int) -> None:
    _cap_samples(samples)
    if samples < MIN_MC_SAMPLES:
        raise MonteCarloError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")


def _estimate(errors, samples: int, seed: int) -> MonteCarloEstimate:
    """Mean of the per-sample errors, given one array per block, with its 95%
    half-width; block sums are added in block order."""
    total = 0.0
    total_sq = 0.0
    for err in errors:
        total += float(err.sum())
        total_sq += float((err * err).sum())
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

    def errors():
        for b, m in _blocks(samples):
            z = _block_rng(seed, b).standard_normal((m, 3))
            u1, u2 = source._pair(z)
            s = u1 - u2
            y = scale * s + z[:, 2]
            yield (s - coef * y) ** 2

    return _estimate(errors(), samples, seed)


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
        if self.hi <= self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if self.cells < 1:
            raise ValueError(f"need at least one cell, got {self.cells}")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.cells) + 0.5) * self.width

    def index(self, x: np.ndarray) -> np.ndarray:
        raw = np.floor(self.cells * (np.asarray(x) - self.lo) / (self.hi - self.lo))
        return np.clip(raw.astype(int), 0, self.cells - 1)

    def cell_alphabet(self, name: str) -> Alphabet:
        return Alphabet(name, tuple(str(i + 1) for i in range(self.cells)))


def quantize_grid(q: GridQuantizer, sample_pairs: np.ndarray,
                  ) -> tuple[np.ndarray, JointPMF]:
    """Cell-index pairs plus the empirical (w1, w2) cell pmf for (n, 2) samples."""
    pts = np.asarray(sample_pairs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) sample array, got shape {pts.shape}")
    idx = np.stack([q.index(pts[:, 0]), q.index(pts[:, 1])], axis=1)
    counts = _cell_counts(idx[:, 0], idx[:, 1], q.cells)
    pmf = JointPMF((q.cell_alphabet("w1"), q.cell_alphabet("w2")), counts / len(pts))
    return idx, pmf


def _cell_counts(i1: np.ndarray, i2: np.ndarray, cells: int) -> np.ndarray:
    """cells x cells histogram of cell-index pairs."""
    return np.bincount(i1 * cells + i2, minlength=cells * cells).reshape(cells, cells)


def offdiagonal_cell_pmf(cells: int = 3, name1: str = "w1", name2: str = "w2",
                         ) -> JointPMF:
    """Exact cell pmf of the blocked-uniform pair density on the unit square
    (zero on the diagonal blocks, uniform elsewhere)."""
    if cells < 2:
        raise ValueError("need at least two cells for an off-diagonal density")
    mass = np.full((cells, cells), 1.0 / (cells * cells - cells))
    np.fill_diagonal(mass, 0.0)
    q = GridQuantizer(0.0, 1.0, cells)
    return JointPMF((q.cell_alphabet(name1), q.cell_alphabet(name2)), mass)


def _offdiagonal_blocks(cells: int, samples: int, seed: int):
    """(u1, u2) coordinates of each keyed block of draws from the
    blocked-uniform density on [0, 1]^2: a uniform off-diagonal cell pair,
    then a uniform point inside it."""
    pairs = np.array([(i, j) for i in range(cells) for j in range(cells) if i != j])
    width = 1.0 / cells
    for b, m in _blocks(samples):
        rng = _block_rng(seed, b)
        which = rng.integers(0, len(pairs), size=m)
        offs = rng.random((m, 2))
        yield ((pairs[which, 0] + offs[:, 0]) * width,
               (pairs[which, 1] + offs[:, 1]) * width)


def sample_offdiagonal_uniform(cells: int, samples: int, seed: int = DEFAULT_SEED,
                               ) -> np.ndarray:
    """Draw (n, 2) points from the blocked-uniform density on [0, 1]^2."""
    _cap_samples(samples)
    out = np.empty((samples, 2))
    done = 0
    for u1, u2 in _offdiagonal_blocks(cells, samples, seed):
        out[done:done + len(u1), 0] = u1
        out[done:done + len(u1), 1] = u2
        done += len(u1)
    return out


def grid_distortion_closed_form(cells: int = 3) -> float:
    """Exact E| |U1 - U2| - |center gap| | for the blocked-uniform density.

    Conditioned on any off-diagonal cell pair the error is |V2 - V1| with
    V uniform on a cell width w, whose mean is w/3.
    """
    if cells < 2:
        raise ValueError("need at least two cells")
    return 1.0 / (3.0 * cells)


def monte_carlo_grid_distortion(cells: int = 3, samples: int = 1_000_000,
                                seed: int = DEFAULT_SEED,
                                cell_counts: np.ndarray | None = None,
                                ) -> MonteCarloEstimate:
    """Empirical distortion of estimating |U1 - U2| by the quantized-cell
    center gap, under the blocked-uniform density. When ``cell_counts`` (a
    cells x cells integer array) is given, the same draws add their
    quantized cell-pair counts to it, as ``quantize_grid`` would count them."""
    _check_samples(samples)
    q = GridQuantizer(0.0, 1.0, cells)
    centers = q.centers

    def errors():
        for u1, u2 in _offdiagonal_blocks(cells, samples, seed):
            i1, i2 = q.index(u1), q.index(u2)
            if cell_counts is not None:
                cell_counts[:] += _cell_counts(i1, i2, cells)
            yield np.abs(np.abs(u1 - u2) - np.abs(centers[i1] - centers[i2]))

    return _estimate(errors(), samples, seed)


def lipschitz_budget(alpha: float, target_d: float) -> float:
    """Per-pair quantization budget: a function moving at most alpha times
    the source distance meets distortion D when pairs are within D/alpha."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if target_d < 0:
        raise ValueError(f"target distortion must be nonnegative, got {target_d}")
    return target_d / alpha
