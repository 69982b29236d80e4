"""Finite-alphabet probability tensors and information measures, all in bits."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-9
INFO_TOL = 1e-9

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class AxisError(ValueError):
    """Unknown, duplicate, or overlapping axis names."""


@dataclass(frozen=True)
class Alphabet:
    """Named, ordered set of distinct symbols.

    Symbol order is fixed and defines tensor axis indexing everywhere.
    """

    name: str
    symbols: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError(f"alphabet {self.name!r} needs at least one symbol")
        position = {s: i for i, s in enumerate(self.symbols)}
        if len(position) != len(self.symbols):
            raise ValueError(f"alphabet {self.name!r} has duplicate symbols")
        object.__setattr__(self, "_position", position)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol) -> bool:
        try:
            return symbol in self._position
        except TypeError:       # unhashable, so not a symbol
            return False

    def index(self, symbol) -> int:
        try:
            return self._position[symbol]
        except (KeyError, TypeError):
            raise KeyError(f"{symbol!r} is not a symbol of alphabet {self.name!r}") from None


def _as_name_tuple(arg) -> tuple[str, ...]:
    if isinstance(arg, str):
        return (arg,)
    return tuple(arg)


@dataclass(frozen=True, eq=False)
class JointPMF:
    """Dense joint probability tensor over named alphabets.

    The constructor checks only structure (shape, unique axis names); use
    :func:`validate` to diagnose normalization and sign violations.
    """

    axes: tuple[Alphabet, ...]
    mass: np.ndarray

    def __post_init__(self) -> None:
        # the caller may still hold and write to the array it passed
        self._settle(np.array(self.mass, dtype=float))

    @classmethod
    def _adopt(cls, axes, mass: np.ndarray) -> "JointPMF":
        """Wrap an array the library has just computed or read, without copying it."""
        pmf = object.__new__(cls)
        object.__setattr__(pmf, "axes", axes)
        pmf._settle(np.asarray(mass, dtype=float))
        return pmf

    def _settle(self, mass: np.ndarray) -> None:
        axes = tuple(self.axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise AxisError(f"duplicate axis names {names}")
        want = tuple(len(a) for a in axes)
        if mass.shape != want:
            raise ValueError(f"mass shape {mass.shape} does not match axis sizes {want}")
        mass.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "mass", mass)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def axis(self, name: str) -> Alphabet:
        return self.axes[self.axis_position(name)]

    def axis_position(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise AxisError(f"no axis named {name!r}; have {self.axis_names}")


@dataclass(frozen=True)
class ValidationProblem:
    kind: str            # "non_finite_entry" | "negative_entry" | "not_normalized"
    index: tuple | None  # offending tensor index, None for global problems
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[ValidationProblem, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate(pmf: JointPMF) -> ValidationReport:
    """Diagnostic check of finiteness, nonnegativity and normalization; never raises."""
    problems = []
    for kind, bad in (("non_finite_entry", ~np.isfinite(pmf.mass)),
                      ("negative_entry", pmf.mass < 0)):
        # np.argwhere costs more than the scan
        if not np.logical_or.reduce(bad, axis=None):
            continue
        for idx in np.argwhere(bad):
            idx = tuple(int(i) for i in idx)
            problems.append(ValidationProblem(kind, idx, float(pmf.mass[idx])))
    total = float(np.add.reduce(pmf.mass, axis=None))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        problems.append(ValidationProblem("not_normalized", None, total))
    return ValidationReport(not problems, tuple(problems))


def marginalize(pmf: JointPMF, keep) -> JointPMF:
    """Sum out every axis not in ``keep``, preserving the original axis order."""
    keep_names = set(_as_name_tuple(keep))
    have = set(pmf.axis_names)
    unknown = keep_names - have
    if unknown:
        raise AxisError(f"unknown axes {sorted(unknown)}; have {pmf.axis_names}")
    mass, _ = _marginal(pmf.mass, pmf.axis_names, keep_names)
    return JointPMF._adopt(tuple(a for a in pmf.axes if a.name in keep_names), mass)


def _marginal(mass: np.ndarray, names: tuple[str, ...], keep,
              ) -> tuple[np.ndarray, tuple[str, ...]]:
    """The marginal of ``mass``, whose axes are ``names``, on the names in
    ``keep``: its mass and its names, both in the order of ``names``. With
    nothing to sum out it is ``mass`` itself, with ``names``.

    Here and in ``_plogp`` each reduction calls the ufunc method itself:
    ``np.sum`` and ``ndarray.sum`` make the same call through a Python
    wrapper, which costs as much as the sum on these small arrays."""
    drop = tuple(i for i, n in enumerate(names) if n not in keep)
    if not drop:
        return mass, names
    return np.add.reduce(mass, axis=drop), tuple(n for n in names if n in keep)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Conditional distribution between alphabet tuples.

    ``rows`` has one row per source tuple (C order over ``from_axes``) and one
    column per target tuple (C order over ``to_axes``); every row is a pmf.
    """

    from_axes: tuple[Alphabet, ...]
    to_axes: tuple[Alphabet, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        # the caller may still hold and write to the array it passed
        self._settle(np.array(self.rows, dtype=float), known_finite=False)

    @classmethod
    def _adopt(cls, from_axes, to_axes, rows: np.ndarray) -> "Kernel":
        """Wrap a float array the library has just built and found finite,
        without copying it or scanning it for finiteness again."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "from_axes", from_axes)
        object.__setattr__(kernel, "to_axes", to_axes)
        kernel._settle(rows, known_finite=True)
        return kernel

    def _settle(self, rows: np.ndarray, known_finite: bool) -> None:
        from_axes = tuple(self.from_axes)
        to_axes = tuple(self.to_axes)
        n_from = math.prod(len(a) for a in from_axes)
        n_to = math.prod(len(a) for a in to_axes)
        if rows.shape != (n_from, n_to):
            raise ValueError(f"rows shape {rows.shape}, expected {(n_from, n_to)}")
        if not known_finite and not np.logical_and.reduce(np.isfinite(rows), axis=None):
            idx = tuple(int(i) for i in np.argwhere(~np.isfinite(rows))[0])
            raise ValueError(f"kernel row entry at {idx} is not finite: {rows[idx]}")
        # on finite entries the least is negative iff some entry is
        if np.minimum.reduce(rows, axis=None) < 0:
            idx = tuple(int(i) for i in np.argwhere(rows < 0)[0])
            raise ValueError(f"kernel row entry at {idx} is negative: {rows[idx]}")
        sums = np.add.reduce(rows, axis=1)
        off = np.abs(sums - 1.0) > NORMALIZATION_TOL
        if np.logical_or.reduce(off):
            i = int(np.flatnonzero(off)[0])
            raise ValueError(f"kernel row {i} sums to {sums[i]}, not 1")
        rows.setflags(write=False)
        object.__setattr__(self, "from_axes", from_axes)
        object.__setattr__(self, "to_axes", to_axes)
        object.__setattr__(self, "rows", rows)

    @property
    def tensor(self) -> np.ndarray:
        """Rows reshaped to ``from_shape + to_shape``."""
        shape = tuple(len(a) for a in self.from_axes) + tuple(len(a) for a in self.to_axes)
        return self.rows.reshape(shape)

    @staticmethod
    def deterministic(from_axes: Sequence[Alphabet], to_axes: Sequence[Alphabet],
                      fn: Callable) -> "Kernel":
        """Point-mass kernel: ``fn(*source_symbols)`` returns a tuple of one
        target symbol per target axis; a value that is not a tuple, or with
        one target axis a symbol of that axis, is the one target symbol."""
        from_axes = tuple(from_axes)
        to_axes = tuple(to_axes)
        cols = []
        for combo in itertools.product(*(a.symbols for a in from_axes)):
            out = fn(*combo)
            if not isinstance(out, tuple) or (len(to_axes) == 1 and out in to_axes[0]):
                out = (out,)
            if len(out) != len(to_axes):
                raise ValueError(f"fn returned {len(out)} target symbols for"
                                 f" {len(to_axes)} target axes")
            col = 0
            for a, s in zip(to_axes, out):
                col = col * len(a) + a.index(s)
            cols.append(col)
        rows = np.zeros((len(cols), math.prod(len(a) for a in to_axes)))
        rows[np.arange(len(cols)), cols] = 1.0
        return Kernel._adopt(from_axes, to_axes, rows)

    @staticmethod
    def constant(from_axes: Sequence[Alphabet], to_axes: Sequence[Alphabet],
                 pmf_row: Sequence[float]) -> "Kernel":
        """Same target pmf for every source tuple (target independent of source)."""
        from_axes = tuple(from_axes)
        n_from = math.prod(len(a) for a in from_axes)
        row = np.asarray(pmf_row, dtype=float).ravel()
        return Kernel(from_axes, tuple(to_axes), np.tile(row, (n_from, 1)))


def compose(base: JointPMF, kernels: Iterable[Kernel]) -> JointPMF:
    """Extend a joint with a chain of conditional factors.

    Each kernel's source axes must already be present in the accumulated
    joint (matched by name and symbols); its target axes are appended.
    """
    acc = base
    for k in kernels:
        for ax in k.from_axes:
            have = acc.axis(ax.name)
            if have.symbols != ax.symbols:
                raise AxisError(f"axis {ax.name!r} symbol mismatch between joint and kernel")
        for ax in k.to_axes:
            if ax.name in acc.axis_names:
                raise AxisError(f"kernel target axis {ax.name!r} already present")
        n = len(acc.axes)
        if n + len(k.to_axes) > len(_LETTERS):
            raise AxisError("too many axes to compose")
        joint_ss = _LETTERS[:n]
        from_ss = "".join(joint_ss[acc.axis_position(a.name)] for a in k.from_axes)
        to_ss = _LETTERS[n:n + len(k.to_axes)]
        mass = np.einsum(f"{joint_ss},{from_ss}{to_ss}->{joint_ss}{to_ss}",
                         acc.mass, k.tensor)
        acc = JointPMF._adopt(acc.axes + k.to_axes, mass)
    return acc


def plogp(a: np.ndarray) -> np.ndarray:
    """Elementwise p * log2(p), with 0 wherever p is not positive."""
    pos = a > 0
    return np.where(pos, a * np.log2(np.where(pos, a, 1.0)), 0.0)


def _plogp(flat: np.ndarray) -> float:
    """Sum of p * log2(p) over the positive entries only. Entropy sums this
    way rather than over ``plogp``: it is faster on small marginals, and
    adding the zeros would change the rounding of every pinned output. When
    every entry is positive the mask would select all of them, so ``flat``
    is reduced itself: the same values in the same order, without copying a
    full-support joint."""
    p = flat if np.minimum.reduce(flat) > 0 else flat[flat > 0]
    return float(np.add.reduce(p * np.log2(p)))


def _joint_entropy(mass: np.ndarray, names: tuple[str, ...]) -> float:
    """Entropy of ``mass`` on all of its axes ``names``; 0 on no axes."""
    return -_plogp(mass.ravel()) if names else 0.0


def entropy(pmf: JointPMF, axes) -> float:
    """Shannon entropy of the marginal on ``axes``, base 2, 0*log(0) = 0."""
    names = _as_name_tuple(axes)
    if not names:
        raise AxisError("entropy needs a non-empty axis set")
    marginal = marginalize(pmf, names)
    return _joint_entropy(marginal.mass, marginal.axis_names)


# The information measures below reduce their input once, to the marginal on
# every axis they name, and sum each smaller marginal from the smallest one
# already formed: a strided reduction of a large joint costs far more than
# the entropies that share it. Each public measure checks its axes, reduces
# the caller's pmf through ``marginalize`` and hands the raw (mass, names)
# pair to its core, which the check also calls on the arrays it forms.

def conditional_entropy(pmf: JointPMF, target, given=()) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    t = _as_name_tuple(target)
    g = _as_name_tuple(given)
    if set(t) & set(g):
        raise AxisError(f"target {t} and given {g} overlap")
    if not t:
        raise AxisError("conditional_entropy needs a non-empty target")
    tg = marginalize(pmf, t + g)
    return _conditional_entropy(tg.mass, tg.axis_names, t, g)


def _conditional_entropy(mass: np.ndarray, names: tuple[str, ...], t: tuple, g: tuple,
                         ) -> float:
    """H(t | g) of ``mass`` on axes ``names``, which hold every name of t and g."""
    tg = _marginal(mass, names, t + g)
    h_g = _joint_entropy(*_marginal(*tg, g)) if g else 0.0
    return _joint_entropy(*tg) - h_g


def mutual_information(pmf: JointPMF, a, b, given=()) -> float:
    """I(a; b | given), clamped to 0 when round-off drives it slightly negative."""
    a = _as_name_tuple(a)
    b = _as_name_tuple(b)
    g = _as_name_tuple(given)
    for x, y in ((a, b), (a, g), (b, g)):
        if set(x) & set(y):
            raise AxisError(f"axis sets must be pairwise disjoint: {a}, {b}, {g}")
    if not a:
        raise AxisError("mutual_information needs a non-empty first axis set")
    abg = marginalize(pmf, a + b + g)
    return _mutual_information(abg.mass, abg.axis_names, a, b, g)


def _mutual_information(mass: np.ndarray, names: tuple[str, ...], a: tuple, b: tuple,
                        g: tuple) -> float:
    """I(a; b | g) of ``mass`` on axes ``names``, which hold every name of a,
    b and g, clamped as ``mutual_information`` clamps it."""
    abg = _marginal(mass, names, a + b + g)
    ag = _marginal(*abg, a + g)
    bg = _marginal(*abg, b + g)
    smaller = ag if ag[0].size <= bg[0].size else bg
    h_g = _joint_entropy(*_marginal(*smaller, g)) if g else 0.0
    return clamp_round_off(
        (_joint_entropy(*ag) - h_g) - (_joint_entropy(*abg) - _joint_entropy(*bg)))


def clamp_round_off(value: float) -> float:
    """An information quantity that cannot be negative, with a value in
    (-``INFO_TOL``, 0) taken as round-off and returned as 0.0."""
    return 0.0 if -INFO_TOL < value < 0 else value


@dataclass(frozen=True)
class SlepianWolfBounds:
    """Rate-region corner quantities for lossless two-source coding."""

    first_given_second: float
    second_given_first: float
    sum_rate: float


def slepian_wolf_bounds(pmf: JointPMF, first, second, given=()) -> SlepianWolfBounds:
    """Bounds for losslessly encoding two variables with decoder side information."""
    f = _as_name_tuple(first)
    s = _as_name_tuple(second)
    g = _as_name_tuple(given)
    for x, y in ((f, s), (f, g), (s, g)):
        if set(x) & set(y):
            raise AxisError(f"axis sets must be pairwise disjoint: {f}, {s}, {g}")
    return SlepianWolfBounds(
        conditional_entropy(pmf, f, s + g),
        conditional_entropy(pmf, s, f + g),
        conditional_entropy(pmf, f + s, g),
    )


def binary_entropy(q: float) -> float:
    """Entropy in bits of a Bernoulli(q) variable."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q in (0.0, 1.0):
        return 0.0
    return float(-q * np.log2(q) - (1 - q) * np.log2(1 - q))
