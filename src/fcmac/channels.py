"""Discrete and Gaussian multiple access channel models and capacities."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import SizeCapError
from .probability import (Alphabet, AxisError, JointPMF, Kernel, _plogp, compose,
                          mutual_information, plogp)

CAPACITY_GRID_POINTS = 51
# Capacity grid points. With one BLAS thread on a 2-vCPU Xeon VM and random
# binary-output laws (seeds 1-3), the worst admitted pair, 1x6 inputs
# (3,478,761 points), takes 1.37-1.46 s and 388 MB peak RSS; 3x3 inputs
# (1,758,276 points) 0.80-0.89 s and 120 MB; 2x4 0.40-0.46 s and 94 MB.
# The grid and its sweep take nearly all of it: the refinement after it
# takes 17-44 ms (32-68 ms while every evaluation recomputed H(Y | x1, x2)).
CAPACITY_GRID_CAP = 4_000_000


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
    py = np.einsum("i,j,ijy->y", p1, p2, law3)
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


def _simplex_grid(dim: int, points: int) -> np.ndarray:
    """All pmfs on ``dim`` symbols with entries in multiples of 1/(points-1),
    in ``itertools.combinations_with_replacement`` order: the first symbol's
    count descending, then, for each, the rest in the same order."""
    steps = points - 1
    # blocks[t]: the count rows over the last d symbols that sum to t; every
    # (d, t) block recurs under many leading counts, so each is built once
    blocks = [np.array([[t]], dtype=np.min_scalar_type(steps)) for t in range(steps + 1)]
    for d in range(2, dim):
        blocks = [_prefix_counts(blocks, t) for t in range(steps + 1)]
    counts = blocks[steps] if dim == 1 else _prefix_counts(blocks, steps)
    return np.divide(counts, steps, dtype=float)


def _prefix_counts(blocks: list[np.ndarray], t: int) -> np.ndarray:
    """Count rows summing to ``t`` over one more leading symbol, whose count
    runs from ``t`` down to 0 with ``blocks[t - k]`` after each ``k``."""
    parts = [blocks[t - k] for k in range(t, -1, -1)]
    sizes = [len(b) for b in parts]
    out = np.empty((sum(sizes), parts[0].shape[1] + 1), dtype=parts[0].dtype)
    out[:, 0] = np.repeat(np.arange(t, -1, -1), sizes)
    out[:, 1:] = np.concatenate(parts)
    return out


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


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
    on ties), then coordinate refinement: golden-section line searches along
    pairwise mass exchanges, which are concave directions of the objective.
    Each round starts with the Frank-Wolfe gap of each input block (see
    ``_block_gap``) and the search stops once both are at most 1e-12, or once
    a round gains less than 1e-12 bits, or after 60 rounds. The result
    carries both gaps at the returned point; they certify that no change of
    one input alone gains more, not that the point is the global maximum,
    since the objective is not jointly concave in the two inputs.
    """
    law3 = mac.law_tensor
    n1, n2 = law3.shape[0], law3.shape[1]
    steps = CAPACITY_GRID_POINTS - 1
    total = math.comb(steps + n1 - 1, n1 - 1) * math.comb(steps + n2 - 1, n2 - 1)
    if total > CAPACITY_GRID_CAP:
        raise SizeCapError(
            f"capacity grid of {total} points exceeds the cap; "
            "input alphabets are too large for this search")
    g1 = _simplex_grid(n1, CAPACITY_GRID_POINTS)
    g2 = _simplex_grid(n2, CAPACITY_GRID_POINTS)
    rows = plogp(law3).sum(axis=2)   # -H(Y | x1, x2)

    # vectorized grid sweep
    py = np.einsum("ai,bj,ijy->aby", g1, g2, law3)
    hy = -plogp(py).sum(axis=2)
    eh = g1 @ (-rows) @ g2.T
    info = hy - eh
    flat = int(np.argmax(info))
    p1 = g1[flat // len(g2)].copy()
    p2 = g2[flat % len(g2)].copy()

    def value(q1, q2) -> float:
        return _product_mutual_info(law3, rows, q1, q2)

    def gaps(q1, q2) -> tuple[float, float]:
        return (_block_gap(law3, rows, q1, q2),
                _block_gap(law3.transpose(1, 0, 2), rows.T, q2, q1))

    best = value(p1, p2)
    for _ in range(60):
        if max(gaps(p1, p2)) <= 1e-12:
            break
        improved = best
        for which in (0, 1):
            p = p1 if which == 0 else p2
            dim = len(p)
            for i, j in itertools.combinations(range(dim), 2):
                lo, hi = -p[j], p[i]
                if hi - lo <= 0:
                    continue

                def along(t, i=i, j=j, which=which):
                    q = (p1 if which == 0 else p2).copy()
                    q[i] -= t
                    q[j] += t
                    return value(q, p2) if which == 0 else value(p1, q)

                t, ft = _golden_max(along, lo, hi)
                if ft > best:
                    best = ft
                    p[i] -= t
                    p[j] += t
        if best - improved < 1e-12:
            break
    p1 = np.clip(p1, 0.0, 1.0)
    p2 = np.clip(p2, 0.0, 1.0)
    p1 /= p1.sum()
    p2 /= p2.sum()
    return SumCapacityResult(float(best), p1, p2, *gaps(p1, p2))


def gmac_sum_rate(mac: GaussianMAC, rho_x: float = 0.0) -> float:
    """Sum-rate bound for jointly Gaussian inputs at correlation ``rho_x``:
    (1/2) log2(1 + 2P(1 + rho_x) / noise variance)."""
    if not -1.0 <= rho_x <= 1.0:
        raise ValueError(f"rho_x must lie in [-1, 1], got {rho_x}")
    snr = 2.0 * mac.power * (1.0 + rho_x) / mac.noise_var
    return 0.5 * math.log2(1.0 + snr)
