"""Discrete and Gaussian multiple access channel models and capacities."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import _BLOCK_CELLS, SizeCapError
from .probability import (Alphabet, AxisError, JointPMF, Kernel, _plogp, compose,
                          mutual_information, plogp)

CAPACITY_GRID_POINTS = 51
# Capacity grid points, and grid points times output symbols. One BLAS
# thread on a 2-vCPU Xeon VM, random Dirichlet laws, seeds 1-3, best of three
# per seed in each of three processes, alternated with as many of the
# buffered sweep this one replaced (its times in brackets); time and peak
# RSS of a whole search:
#   inputs (points)      |Y| = 2                         |Y| = 5
#   1x6 (3,478,761)      0.23-0.39 s [0.23-0.34], 90 MB  0.36-0.61 s [0.39-0.73], 90 MB
#   6x1                  0.27-0.44 s [0.24-0.40], 90 MB  0.39-0.78 s [0.38-0.65], 90 MB
#   3x3 (1,758,276)      0.11-0.17 s [0.10-0.17], 42 MB  0.19-0.27 s [0.18-0.25], 42 MB
#   2x4 (1,194,726)      0.06-0.11 s [0.07-0.11], 43 MB  0.13-0.27 s [0.12-0.26], 42 MB
# (the three-operand einsum sweep took 0.81-1.19 s and 388-627 MB at 1x6).
# The sweep's work and the refinement's grow with |Y|: at the cell cap,
# 1x6 with |Y| = 9 takes 0.65-1.22 s [0.68-1.16], 3x3 with |Y| = 19
# 0.63-1.12 s [0.68-0.92] and 2x4 with |Y| = 28 0.71-0.90 s [0.65-1.08],
# all at 40-90 MB. The sweep alone, interleaved with the buffered one in one
# process (two runs of 10 and 12 calls, medians): 1x6 |Y| = 2 0-5 % faster,
# 3x3 |Y| = 5 8-9 % and 2x4 |Y| = 28 7-18 % slower, where each block's
# fresh arrays take about 11,000 and 20,000 more minor page faults a sweep.
CAPACITY_GRID_CAP = 4_000_000
CAPACITY_CELL_CAP = 2**25


@dataclass(frozen=True, eq=False)
class DiscreteMAC:
    """Memoryless two-transmitter channel with law p(y | x1, x2)."""

    input_alphabets: tuple[Alphabet, Alphabet]
    output_alphabet: Alphabet
    law: Kernel

    def __post_init__(self) -> None:
        a1, a2 = self.input_alphabets
        if self.law.from_axes != (a1, a2) or self.law.to_axes != (self.output_alphabet,):
            raise AxisError("channel law axes must be (input1, input2) -> (output,)")

    @property
    def law_tensor(self) -> np.ndarray:
        """Law reshaped to (|X1|, |X2|, |Y|)."""
        return self.law.tensor


@dataclass(frozen=True)
class GaussianMAC:
    """Additive-noise Gaussian MAC with a per-input power constraint."""

    power: float
    noise_var: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.power) and self.power >= 0):
            raise ValueError(f"power must be finite and nonnegative, got {self.power}")
        if not (math.isfinite(self.noise_var) and self.noise_var > 0):
            raise ValueError(f"noise_var must be finite and positive, got {self.noise_var}")


def adder_mac() -> DiscreteMAC:
    """Binary-input channel (x1, x2) -> y whose output is the integer sum."""
    bits = ("0", "1")
    a1 = Alphabet("x1", bits)
    a2 = Alphabet("x2", bits)
    out = Alphabet("y", ("0", "1", "2"))
    law = Kernel.deterministic((a1, a2), (out,), lambda s1, s2: str(int(s1) + int(s2)))
    return DiscreteMAC((a1, a2), out, law)


def mac_mutual_info(mac: DiscreteMAC, input_joint: JointPMF) -> float:
    """I(X1, X2; Y) when ``input_joint`` drives the channel."""
    a1, a2 = mac.input_alphabets
    if len(input_joint.axes) != 2:
        raise AxisError("input joint must have exactly the two channel input axes")
    for have, want in zip(input_joint.axes, (a1, a2)):
        if have.name != want.name or have.symbols != want.symbols:
            raise AxisError(f"input axis {have.name!r} does not match channel input {want.name!r}")
    joint = compose(input_joint, [mac.law])
    return mutual_information(joint, (a1.name, a2.name), mac.output_alphabet.name)


def _product_mutual_info(law3: np.ndarray, rows: np.ndarray, p1: np.ndarray,
                         p2: np.ndarray) -> float:
    """I(X1,X2;Y) for independent inputs p1, p2 (law3 shaped inputs x output;
    rows[x1, x2] = -H(Y | x1, x2), the law's row sums of p log2 p)."""
    py = p2 @ (p1 @ law3.reshape(len(p1), -1)).reshape(len(p2), -1)
    return -_plogp(py) + float(p1 @ rows @ p2)


def _block_scores(law3: np.ndarray, rows: np.ndarray, p: np.ndarray,
                  other: np.ndarray) -> np.ndarray:
    """g(x) = -sum_y V_x(y) log2 p(y) - H(Y | x, other) for each symbol x of
    the first input block of ``law3``, at input ``p`` with the second input
    held at ``other``; V_x is the output law of symbol x and p(y) the output
    law, so that sum_x p(x) g(x) = I(X1,X2;Y). +inf for a symbol that would
    put mass on an output of zero mass."""
    v = other @ law3   # v[x, y] = V_x(y)
    py = p @ v
    dead = py <= 0
    g = rows @ other - v @ np.log2(np.where(dead, 1.0, py))
    if dead.any():
        g[(v[:, dead] > 0).any(axis=1)] = math.inf
    return g


def _block_gap(law3: np.ndarray, rows: np.ndarray, p: np.ndarray,
               other: np.ndarray) -> float:
    """Frank-Wolfe gap max_x g(x) - I of the first input block (see
    ``_block_scores``). I is concave in this block, so no change of ``p``
    alone gains more than the gap; it is +inf when some symbol would open
    an output of zero mass."""
    g = _block_scores(law3, rows, p, other)
    top = g.max()
    return math.inf if top == math.inf else float(top - p @ g)


def _simplex_counts(dim: int, steps: int) -> np.ndarray:
    """All rows of ``dim`` nonnegative integer counts summing to ``steps``,
    the pmfs of the capacity grid in multiples of 1/steps, in
    ``itertools.combinations_with_replacement`` order: the first symbol's
    count descending, then, for each, the rest in the same order."""
    # blocks[t]: the count rows over the last d symbols that sum to t; every
    # (d, t) block recurs under many leading counts, so each is built once
    column = np.arange(steps + 1, dtype=np.min_scalar_type(steps))[:, None]
    blocks = [column[t:t + 1] for t in range(steps + 1)]
    for d in range(2, dim):
        blocks = [_prefix_counts(blocks, t) for t in range(steps + 1)]
    return blocks[steps] if dim == 1 else _prefix_counts(blocks, steps)


def _prefix_counts(blocks: list[np.ndarray], t: int) -> np.ndarray:
    """Count rows summing to ``t`` over one more leading symbol, whose count
    runs from ``t`` down to 0 with ``blocks[t - k]`` after each ``k``."""
    parts = [blocks[t - k] for k in range(t, -1, -1)]
    sizes = [len(b) for b in parts]
    out = np.empty((sum(sizes), parts[0].shape[1] + 1), dtype=parts[0].dtype)
    out[:, 0] = np.repeat(np.arange(t, -1, -1, dtype=out.dtype), sizes)
    out[:, 1:] = np.concatenate(parts)
    return out


def _grid_argmax(law3: np.ndarray, rows: np.ndarray, counts1: np.ndarray,
                 counts2: np.ndarray, steps: int) -> tuple[int, int]:
    """(a, b) maximizing I(X1,X2;Y) at the inputs counts1[a] / steps and
    counts2[b] / steps, the first in the order a * len(counts2) + b on ties
    (``rows`` as in ``_product_mutual_info``).

    The larger grid is swept in row blocks of at most ``_BLOCK_CELLS`` terms
    (p1(i) p2(j)) V(y | i, j), one row when a row has more, so no array
    grows with the product of the grids. Each output law sums its terms over
    i, then j: the products and the order of ``np.einsum("ai,bj,ijy->aby",
    ...)``, so every H(Y) is that sweep's to the bit. On a deterministic law,
    where H(Y | x1, x2) is 0 and many points tie in exact arithmetic, they
    rank as they did there; a matrix product rounds differently and can
    rank another of them first."""
    n1, n2, ny = law3.shape
    swap = len(counts1) > len(counts2)
    small = np.divide(counts2 if swap else counts1, steps, dtype=float)
    big = counts1 if swap else counts2
    block = min(len(big), max(1, _BLOCK_CELLS // (len(small) * ny * n1 * n2)))
    best, first = -math.inf, (0, 0)
    for lo in range(0, len(big), block):
        part = np.divide(big[lo:lo + block], steps, dtype=float, order="F")   # columns contiguous
        g1, g2 = (part, small) if swap else (small, part)
        py = np.zeros((ny, len(g1), len(g2)))   # [y, a, b]
        for i, j in itertools.product(range(n1), range(n2)):
            py += np.multiply.outer(g1[:, i], g2[:, j]) * law3[i, j, :, None, None]
        # the einsum sweep summed H(Y) over a last axis, which np.sum adds in
        # order below 8 terms and pairwise from 8 on
        terms = plogp(py)
        hy = -(terms.sum(axis=0) if ny < 8 else terms.transpose(1, 2, 0).copy().sum(axis=2))
        info = hy - (g1 @ -rows) @ g2.T   # minus E H(Y | x1, x2); [a, b] in the block
        k = int(np.argmax(info))
        a, b = divmod(k, info.shape[1])
        if swap:
            a += lo
        else:
            b += lo
        if info.flat[k] > best or (info.flat[k] == best and (a, b) < first):
            best, first = info.flat[k], (a, b)
    return first


def _exchange(law3: np.ndarray, rows: np.ndarray, p: np.ndarray, other: np.ndarray,
              i: int, j: int) -> float:
    """Mass to move from symbol i to symbol j of the first input block of
    ``law3``: the maximizer of I(X1,X2;Y) over t in [0, p[i]] along
    e_j - e_i, with the second input held at ``other``. I is concave along
    the line, so its slope g(j) - g(i) (``_block_scores``) falls, and 60
    bisections on the slope's sign place the step to within 2^-60 of p[i].
    0 when p[i] is 0 or the slope at 0 is at most 1e-12, so no step chases
    rounding noise; p[i] when the slope stays positive."""
    def slope(t: float) -> float:
        q = p.copy()
        q[i] -= t
        q[j] += t
        g = _block_scores(law3, rows, q, other)
        return g[j] - g[i]

    if p[i] == 0 or not slope(0.0) > 1e-12:
        return 0.0
    if slope(p[i]) > 0:
        return p[i]
    lo, hi = 0.0, p[i]
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class SumCapacityResult:
    bits: float
    input1: np.ndarray   # maximizing marginal on the first input
    input2: np.ndarray
    gap1: float          # Frank-Wolfe gap of each input block at the result
    gap2: float


def mac_sum_capacity_independent(mac: DiscreteMAC) -> SumCapacityResult:
    """Maximum of I(X1, X2; Y) over product input distributions.

    Coarse grid over the two input simplices (first maximizer in grid order
    on ties), then coordinate refinement: rounds of exact line searches on the
    slope along each pairwise mass exchange of each input (``_exchange``),
    skipping an input whose Frank-Wolfe gap (``_block_gap``) is at most
    1e-12. The search stops once a round moves no mass, or after 60 rounds.
    The result carries the value and both gaps at the returned inputs; the
    gaps certify that no change of one input alone gains more, not that the
    point is the global maximum, since the objective is not jointly concave
    in the two inputs.
    """
    law3 = mac.law_tensor
    n1, n2 = law3.shape[0], law3.shape[1]
    steps = CAPACITY_GRID_POINTS - 1
    total = math.comb(steps + n1 - 1, n1 - 1) * math.comb(steps + n2 - 1, n2 - 1)
    if total > CAPACITY_GRID_CAP:
        raise SizeCapError(
            f"capacity grid of {total} points exceeds the cap; "
            "input alphabets are too large for this search")
    ny = law3.shape[2]
    if total * ny > CAPACITY_CELL_CAP:
        raise SizeCapError(
            f"capacity grid of {total} points times {ny} outputs exceeds the cap of "
            f"{CAPACITY_CELL_CAP} cells; the output alphabet is too large for this search")
    counts1 = _simplex_counts(n1, steps)
    counts2 = _simplex_counts(n2, steps)
    rows = plogp(law3).sum(axis=2)   # -H(Y | x1, x2)

    a, b = _grid_argmax(law3, rows, counts1, counts2, steps)
    p1 = np.divide(counts1[a], steps, dtype=float)
    p2 = np.divide(counts2[b], steps, dtype=float)

    blocks = ((law3, rows, p1, p2), (law3.transpose(1, 0, 2), rows.T, p2, p1))
    for _ in range(60):
        moved = False
        for block in blocks:
            if _block_gap(*block) <= 1e-12:
                continue
            p = block[2]
            for i, j in itertools.permutations(range(len(p)), 2):
                t = _exchange(*block, i, j)
                if t:
                    p[i] -= t
                    p[j] += t
                    moved = True
        if not moved:
            break
    p1 /= p1.sum()
    p2 /= p2.sum()
    return SumCapacityResult(_product_mutual_info(law3, rows, p1, p2), p1, p2,
                             _block_gap(*blocks[0]), _block_gap(*blocks[1]))


def gmac_sum_rate(mac: GaussianMAC, rho_x: float = 0.0) -> float:
    """Sum-rate bound for jointly Gaussian inputs at correlation ``rho_x``:
    (1/2) log2(1 + 2P(1 + rho_x) / noise variance)."""
    if not -1.0 <= rho_x <= 1.0:
        raise ValueError(f"rho_x must lie in [-1, 1], got {rho_x}")
    snr = 2.0 * mac.power * (1.0 + rho_x) / mac.noise_var
    return 0.5 * math.log2(1.0 + snr)
