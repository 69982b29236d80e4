"""Joint-transmission feasibility: evaluate the three rate inequalities and
the distortion constraint of the chain (U, Z) -> W -> X -> Y, the source side
from two encoder joints and the channel side on its clique."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DiscreteMAC
from .graphs import FunctionTable, SizeCapError
from .probability import (
    Alphabet,
    AxisError,
    JointPMF,
    Kernel,
    _conditional_entropy,
    _marginal,
    _mutual_information,
    binary_entropy,
    clamp_round_off,
    compose,
)

BOUNDARY_TOL = 1e-9
# Largest axis product the check may span, in cells: the channel clique
# (w1, w2, z, x1, x2, y), or the seven-axis source product
# (u1, u2, z1, z2, z, w1, w2). The check never builds the latter, but its cell
# count bounds the check's work and memory, whatever the number of function
# labels. The measured times are in the README's "Size caps" table.
FEASIBILITY_CELL_CAP = 2**23


@dataclass(frozen=True, eq=False)
class DistortionTable:
    """Per-pair cost d(output, estimate) with d(a, b) = 0 iff a = b. Each
    label set is held as an ``Alphabet``, which refuses a repeated label."""

    output_labels: Alphabet
    estimate_labels: Alphabet
    values: np.ndarray

    def __post_init__(self) -> None:
        out = Alphabet("function_range", self.output_labels)
        est = Alphabet("decoder_range", self.estimate_labels)
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(out), len(est)):
            raise ValueError(f"distortion shape {vals.shape} != {(len(out), len(est))}")
        if not np.logical_and.reduce(np.isfinite(vals), axis=None):
            idx = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise ValueError(f"distortion value at {idx} is not finite: {vals[idx]}")
        # on finite values the least is negative iff some value is
        if np.minimum.reduce(vals, axis=None) < 0:
            raise ValueError("distortion values must be nonnegative")
        # Python floats, not one numpy scalar per cell; each prints as its scalar did
        for a, row in zip(out, vals.tolist()):
            for b, v in zip(est, row):
                if (a == b) != (v == 0.0):
                    raise ValueError(f"d({a!r}, {b!r}) = {v} violates d = 0 iff labels equal")
        vals.setflags(write=False)
        object.__setattr__(self, "output_labels", out)
        object.__setattr__(self, "estimate_labels", est)
        object.__setattr__(self, "values", vals)

    def cost(self, output, estimate) -> float:
        return float(self.values[self.output_labels.index(output),
                                 self.estimate_labels.index(estimate)])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AxisError(message)


def _same_axis(a: Alphabet, b: Alphabet) -> bool:
    return a.name == b.name and a.symbols == b.symbols


def _source_axes(source_joint: JointPMF, w1_kernel: Kernel, w2_kernel: Kernel,
                 ) -> tuple[Alphabet, ...]:
    """The seven source-side axes (u1, u2, z1, z2, z, w1, w2), once the
    encoder kernels are checked to chain onto the five-axis source joint."""
    axes = source_joint.axes
    _require(len(axes) == 5, f"source joint needs 5 axes, got {len(axes)}")
    u1, u2, z1, z2, z = axes
    _require(w1_kernel.from_axes == (u1, z1),
             "w1 kernel must condition on (source1, side info 1)")
    _require(w2_kernel.from_axes == (u2, z2),
             "w2 kernel must condition on (source2, side info 2)")
    _require(len(w1_kernel.to_axes) == 1 and len(w2_kernel.to_axes) == 1,
             "encoder kernels must emit a single axis")
    return (*axes, *w1_kernel.to_axes, *w2_kernel.to_axes)


def _require_distinct(axes: tuple[Alphabet, ...], what: str) -> None:
    names = [a.name for a in axes]
    for i, name in enumerate(names):
        _require(name not in names[:i], f"axis name {name!r} is used twice among the {what}")


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """One complete instance of the transmission system.

    The source joint carries five axes in order (source1, source2,
    encoder-1 side info, encoder-2 side info, decoder side info); the
    kernels, channel, function, decoder and distortion table must chain
    onto it. Trivial side information is a singleton alphabet.
    """

    source_joint: JointPMF
    w1_kernel: Kernel
    w2_kernel: Kernel
    x1_kernel: Kernel
    x2_kernel: Kernel
    channel: DiscreteMAC
    function: FunctionTable
    decoder: FunctionTable
    distortion: DistortionTable
    target_d: float

    def __post_init__(self) -> None:
        source = _source_axes(self.source_joint, self.w1_kernel, self.w2_kernel)
        u1, u2, z1, z2, z, w1, w2 = source
        _require(self.x1_kernel.from_axes == (w1,), "x1 kernel must condition on w1")
        _require(self.x2_kernel.from_axes == (w2,), "x2 kernel must condition on w2")
        _require(len(self.x1_kernel.to_axes) == 1 and len(self.x2_kernel.to_axes) == 1,
                 "channel-input kernels must emit a single axis")
        x1, = self.x1_kernel.to_axes
        x2, = self.x2_kernel.to_axes
        _require_distinct((*source, x1, x2, self.channel.output_alphabet), "ten system axes")
        c1, c2 = self.channel.input_alphabets
        _require(_same_axis(x1, c1) and _same_axis(x2, c2),
                 "channel input alphabets must match the x kernels")
        _require(tuple(a.symbols for a in self.function.domain_axes) ==
                 (u1.symbols, u2.symbols),
                 "function domain must be (source1, source2)")
        _require(tuple(a.symbols for a in self.decoder.domain_axes) ==
                 (w1.symbols, w2.symbols, z.symbols),
                 "decoder domain must be (w1, w2, decoder side info)")
        for lbl in self.function.range_labels():
            _require(lbl in self.distortion.output_labels,
                     f"function output {lbl!r} missing from the distortion table")
        for lbl in self.decoder.range_labels():
            _require(lbl in self.distortion.estimate_labels,
                     f"decoder output {lbl!r} missing from the distortion table")
        if not (math.isfinite(self.target_d) and self.target_d >= 0):
            raise ValueError(
                f"target_d must be finite and nonnegative, got {self.target_d}")

    @property
    def axis_names(self) -> dict:
        u1, u2, z1, z2, z = self.source_joint.axes
        return {
            "u1": u1.name, "u2": u2.name, "z1": z1.name, "z2": z2.name, "z": z.name,
            "w1": self.w1_kernel.to_axes[0].name, "w2": self.w2_kernel.to_axes[0].name,
            "x1": self.x1_kernel.to_axes[0].name, "x2": self.x2_kernel.to_axes[0].name,
            "y": self.channel.output_alphabet.name,
        }


def verdict_from_margin(margin_bits: float) -> str:
    """``boundary`` within ``BOUNDARY_TOL`` of zero, else ``strict`` for a
    positive margin (rate below capacity) and ``violated`` for a negative one."""
    if abs(margin_bits) <= BOUNDARY_TOL:
        return "boundary"
    return "strict" if margin_bits > 0 else "violated"


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    lhs_bits: float
    rhs_bits: float

    @property
    def margin_bits(self) -> float:
        return self.rhs_bits - self.lhs_bits

    @property
    def verdict(self) -> str:
        return verdict_from_margin(self.margin_bits)


@dataclass(frozen=True)
class FeasibilityReport:
    inequalities: tuple[InequalityRecord, ...]
    achieved_distortion: float
    target_distortion: float

    @property
    def distortion_ok(self) -> bool:
        return self.achieved_distortion <= self.target_distortion + BOUNDARY_TOL

    def feasible(self, allow_boundary: bool = False) -> bool:
        allowed = {"strict", "boundary"} if allow_boundary else {"strict"}
        return all(r.verdict in allowed for r in self.inequalities) and self.distortion_ok

    def record(self, name: str) -> InequalityRecord:
        for r in self.inequalities:
            if r.name == name:
                return r
        raise KeyError(name)


def expected_distortion(spec: SystemSpec) -> float:
    """E[d(function(U1, U2), decoder(W1, W2, Z))], contracted from the source
    joint and the two encoders. With at most min(|U1|, |W2|) function labels
    it is the pmf of (function label, z, w1, w2) weighed by each label's cost
    row on (z, w1, w2); with more, the cost of each source pair is gathered on
    p(u1, u2, z, w1, w2). Either way no array is larger than those that form
    that pmf, whatever the number of labels."""
    f_codes = _label_codes(spec.function, spec.distortion.output_labels)
    d_codes = _label_codes(spec.decoder, spec.distortion.estimate_labels).transpose(2, 0, 1)
    labels = len(spec.distortion.output_labels)
    if labels <= min(f_codes.shape[0], len(spec.w2_kernel.to_axes[0])):
        by_label = _label_marginal(spec.source_joint, spec.w1_kernel, spec.w2_kernel,
                                   f_codes, labels)
        return float(np.vdot(by_label, spec.distortion.values[:, d_codes]))
    mass = _pair_marginal(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
    weighted = spec.distortion.values[f_codes[:, :, None, None, None], d_codes]
    weighted *= mass
    return float(np.add.reduce(weighted, axis=None))


def _label_codes(table: FunctionTable, labels: Alphabet) -> np.ndarray:
    """Each cell's label as its position in ``labels``, looked up once per
    distinct label."""
    lut = np.array([labels.index(v) for v in table.range_labels()], dtype=np.intp)
    return lut[table._codes]


def _require_cells(what: str, axes: tuple[Alphabet, ...]) -> None:
    cells = math.prod(len(a) for a in axes)
    if cells > FEASIBILITY_CELL_CAP:
        raise SizeCapError(
            f"{what} ({', '.join(a.name for a in axes)}) has {cells} cells,"
            f" over the feasibility cap of {FEASIBILITY_CELL_CAP}")


# The source side (u1, u2, z1, z2, z, w1, w2) is never formed. W1 depends on
# (U1, Z1) alone and W2 on (U2, Z2) alone, so every left-hand side comes from
# the two encoder joints p(ui, zi, z, w1, w2), and the distortion from the pmf
# of the function label, or of the source pair, with both codewords. Each is
# contracted one encoder at a time. The cap still counts the cells of the
# seven-axis product.

def _encoder_joints(source_joint: JointPMF, w1_kernel: Kernel, w2_kernel: Kernel):
    """p(u1, z1, z, w1, w2) and p(u2, z2, z, w1, w2), each as its mass and
    axis names."""
    u1, u2, z1, z2, z = source_joint.axes
    w1, w2 = w1_kernel.to_axes + w2_kernel.to_axes
    _require_cells("source product", (u1, u2, z1, z2, z, w1, w2))
    p, k1, k2 = source_joint.mass, w1_kernel.tensor, w2_kernel.tensor
    n1, n2 = len(u1) * len(z1), len(u2) * len(z2)
    # p(u1, z1, z, w2) and p(u2, z2, z, w1): each encoder's inputs summed out
    # against its kernel, rows in C order over the other encoder's inputs and z
    s2 = p.transpose(0, 2, 4, 1, 3).reshape(-1, n2) @ w2_kernel.rows
    s1 = p.transpose(1, 3, 4, 0, 2).reshape(-1, n1) @ w1_kernel.rows
    t1 = k1[:, :, None, :, None] * s2.reshape(len(u1), len(z1), len(z), 1, len(w2))
    t2 = k2[:, :, None, None, :] * s1.reshape(len(u2), len(z2), len(z), len(w1), 1)
    return ((t1, (u1.name, z1.name, z.name, w1.name, w2.name)),
            (t2, (u2.name, z2.name, z.name, w1.name, w2.name)))


def _pair_marginal(source_joint: JointPMF, w1_kernel: Kernel, w2_kernel: Kernel,
                   ) -> np.ndarray:
    """Mass of p(u1, u2, z, w1, w2). For each (u1, u2, z) it is the matrix
    product K1^T P K2 over (z1, z2), with P = p(u1, u2, ., ., z),
    K1 = p(w1 | u1, .) and K2 = p(w2 | u2, .)."""
    _require_cells("source product",
                   source_joint.axes + w1_kernel.to_axes + w2_kernel.to_axes)
    p, k1, k2 = source_joint.mass, w1_kernel.tensor, w2_kernel.tensor
    by_pair = p.transpose(0, 1, 4, 2, 3)                        # (u1, u2, z, z1, z2)
    return (k1.transpose(0, 2, 1)[:, None, None] @ by_pair) @ k2[None, :, None]


def _label_marginal(source_joint: JointPMF, w1_kernel: Kernel, w2_kernel: Kernel,
                    f_codes: np.ndarray, labels: int) -> np.ndarray:
    """Mass of p(f(u1, u2), z, w1, w2), rows in C order over (label, z, w1),
    with ``f_codes[u1, u2]`` the label of each source pair. For each
    (u2, u1, z), K1^T P over z1, with P = p(u1, u2, ., ., z) and
    K1 = p(w1 | u1, .), gives p(u2, u1, z, w1, z2). For each u2 a one-hot
    product sums its u1 by label, and one product with p(w2 | u2, z2) then
    sums out (u2, z2). With no more labels than |U1| and |W2|, no array is
    larger, and no product longer, than those of ``_pair_marginal``."""
    _require_cells("source product",
                   source_joint.axes + w1_kernel.to_axes + w2_kernel.to_axes)
    p, k1 = source_joint.mass, w1_kernel.tensor
    n_u1, n_u2, n_z2 = p.shape[0], p.shape[1], p.shape[3]
    by_u2 = k1.transpose(0, 2, 1)[None, :, None] @ p.transpose(1, 0, 4, 2, 3)
    one_hot = (f_codes.T[:, None, :] == np.arange(labels)[:, None]).astype(float)
    summed = one_hot @ by_u2.reshape(n_u2, n_u1, -1)          # (u2, label, z w1 z2)
    by_label = summed.reshape(n_u2, -1, n_z2).transpose(1, 0, 2)   # (label z w1, u2, z2)
    return by_label.reshape(-1, n_u2 * n_z2) @ w2_kernel.rows


def _codeword_marginal(e1):
    """p(z, w1, w2), summed from the first encoder joint ``e1``."""
    mass, names = e1
    return _marginal(mass, names, names[2:])


def _source_side_bounds(e1, e2, zw) -> tuple[float, float, float]:
    """I(U1,Z1; W1 | W2,Z), I(U2,Z2; W2 | W1,Z) and I(U1,U2,Z1,Z2; W1,W2 | Z)
    from the two encoder joints and their (z, w1, w2) marginal ``zw``. The
    third is H(W1,W2 | Z) - H(W1 | U1,Z1) - H(W2 | U2,Z2): given the sources
    and all side information the two codewords are independent, each
    depending on its own encoder's inputs."""
    u1, z1, z, w1, w2 = e1[1]
    u2, z2 = e2[1][:2]
    joint_rate = (_conditional_entropy(*zw, (w1, w2), (z,))
                  - _conditional_entropy(*e1, (w1,), (u1, z1))
                  - _conditional_entropy(*e2, (w2,), (u2, z2)))
    return (_mutual_information(*e1, (u1, z1), (w1,), (w2, z)),
            _mutual_information(*e2, (u2, z2), (w2,), (w1, z)),
            clamp_round_off(joint_rate))


def _source_half(spec: SystemSpec) -> tuple:
    """The source side of ``check_feasibility``: the first encoder joint's
    (z, w1, w2) marginal, the three left-hand sides and the expected
    distortion. Systems that differ only in their channel-input kernels and
    channel share it."""
    e1, e2 = _encoder_joints(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
    zw = _codeword_marginal(e1)
    return zw, _source_side_bounds(e1, e2, zw), expected_distortion(spec)


def _channel_half(spec: SystemSpec, source: tuple) -> FeasibilityReport:
    """The right-hand sides on ``spec``'s channel clique, whose cells the
    caller has checked, reported with ``source``, the ``_source_half`` of
    ``spec`` or of a system with the same source side."""
    zw, lhs, distortion = source
    n = spec.axis_names
    z = spec.source_joint.axes[4]
    channel = compose(JointPMF._adopt((z,) + spec.w1_kernel.to_axes + spec.w2_kernel.to_axes,
                                      zw[0]),
                      [spec.x1_kernel, spec.x2_kernel, spec.channel.law])
    clique = (channel.mass, channel.axis_names)
    rhs = (_mutual_information(*clique, (n["x1"],), (n["y"],), (n["x2"], n["w2"], n["z"])),
           _mutual_information(*clique, (n["x2"],), (n["y"],), (n["x1"], n["w1"], n["z"])),
           _mutual_information(*clique, (n["x1"], n["x2"]), (n["y"],), (n["z"],)))
    recs = tuple(InequalityRecord(name, left, right)
                 for name, left, right in zip(("encoder1", "encoder2", "sum"), lhs, rhs))
    return FeasibilityReport(recs, distortion, spec.target_d)


def check_feasibility(spec: SystemSpec) -> FeasibilityReport:
    """Evaluate the three rate inequalities and the distortion constraint.

    Verdicts are three-way (strict / boundary / violated) with margins, so
    equality cases surface instead of silently passing or failing.

    The chain (U, Z) -> W -> X -> Y puts every left-hand side and the
    distortion on the source side and every right-hand side on the channel
    clique (w1, w2, z, x1, x2, y). The left-hand sides are read from the two
    5-axis encoder joints p(u1, z1, z, w1, w2) and p(u2, z2, z, w1, w2), the
    distortion from p(f(u1, u2), z, w1, w2), and the channel clique extends the
    first encoder joint's (z, w1, w2) marginal. Neither the 7-axis source
    clique nor the 10-axis joint is built. Each bound is evaluated on raw
    arrays by the information measures' cores, with no ``JointPMF`` per
    marginal. The clique's size is checked before any of this work.
    """
    _require_cells("channel clique", spec.w1_kernel.to_axes + spec.w2_kernel.to_axes
                   + spec.source_joint.axes[4:] + spec.x1_kernel.to_axes
                   + spec.x2_kernel.to_axes + spec.channel.law.to_axes)
    return _channel_half(spec, _source_half(spec))


@dataclass(frozen=True)
class SourceCodingBounds:
    """The three rate bounds of the source-coding specialization
    (noiseless channel carrying both codewords, inputs equal to the W's)."""

    r1: float
    r2: float
    r_sum: float


def source_coding_region(source_joint: JointPMF, w1_kernel: Kernel, w2_kernel: Kernel,
                         ) -> SourceCodingBounds:
    """Rate bounds for distributed source coding with decoder side
    information; refuses what ``SystemSpec`` refuses of the source side."""
    _require_distinct(_source_axes(source_joint, w1_kernel, w2_kernel), "seven source axes")
    e1, e2 = _encoder_joints(source_joint, w1_kernel, w2_kernel)
    return SourceCodingBounds(*_source_side_bounds(e1, e2, _codeword_marginal(e1)))


def induce_remote_distortion(posterior: Kernel, f: FunctionTable, g: FunctionTable,
                             d: DistortionTable) -> np.ndarray:
    """Expected distortion table for noisy-observation coding.

    ``posterior`` maps an observed pair (source estimate, side-info estimate)
    to a pmf over the clean pair; ``f`` is the target function on the clean
    pair, ``g`` the reconstruction from (codeword, observed side info).
    Returns the table indexed (observed source, observed side info, codeword).
    """
    _require(len(posterior.from_axes) == 2 and len(posterior.to_axes) == 2,
             "posterior must map an observed pair to a clean pair")
    obs_u, obs_z = posterior.from_axes
    clean_u, clean_z = posterior.to_axes
    _require(tuple(a.symbols for a in f.domain_axes) == (clean_u.symbols, clean_z.symbols),
             "function domain must be the posterior's clean pair")
    _require(len(g.domain_axes) == 2,
             "reconstruction must be defined on (codeword, observed side info)")
    w_axis, g_z = g.domain_axes
    _require(g_z.symbols == obs_z.symbols,
             "reconstruction side-info axis must match the observed side info")
    f_codes = _label_codes(f, d.output_labels)                 # (u, z)
    g_codes = _label_codes(g, d.estimate_labels)               # (w, z~)
    post = posterior.tensor                                    # (u~, z~, u, z)
    cost = d.values[f_codes[None, :, :, None],
                    np.transpose(g_codes)[:, None, None, :]]   # (z~, u, z, w)
    return np.einsum("abuz,buzw->abw", post, cost)


def korner_marton_bounds(crossover: float) -> tuple[float, float]:
    """Reference rate pair (h(q), h(q)) for distributed coding of the binary
    sum of uniform bits that disagree with probability q. A comparison
    baseline from linear-code constructions; not produced by (and not
    derivable from) the random-coding feasibility region checked here."""
    h = binary_entropy(crossover)
    return (h, h)
