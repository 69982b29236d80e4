"""Shared builders for the bundled example systems.

Two discrete systems recur across the experiments, the CLI and the tests:
the ternary off-diagonal source with the order-comparison function, and the
three-cell quantized pair with the absolute-difference function. Both ride
the binary adder channel.
"""

from __future__ import annotations

from fractions import Fraction

from .channels import adder_mac
from .feasibility import DistortionTable, SystemSpec
from .graphs import FunctionTable
from .probability import Alphabet, JointPMF, Kernel, compose
from .schemes import GridQuantizer, offdiagonal_cell_pmf

TERNARY = ("1", "2", "3")
BITS = ("0", "1")

# the documented 2-coloring of the single-edge confusability graph: symbols
# 1 and 2 share a color, 3 gets the other
COLOR_OF = {"1": "0", "2": "0", "3": "1"}


def _singleton(name: str) -> Alphabet:
    return Alphabet(name, ("-",))


def ternary_source_joint(name1: str = "u1", name2: str = "u2") -> JointPMF:
    """Uniform mass 1/6 on every off-diagonal ternary pair."""
    return offdiagonal_cell_pmf(3, name1, name2)


def comparison_function() -> FunctionTable:
    """Indicator that u1 exceeds u2 (0/1 labels)."""
    axes = (Alphabet("u1", TERNARY), Alphabet("u2", TERNARY))
    return FunctionTable.from_callable(axes, lambda a, b: 1 if int(a) > int(b) else 0)


def color_kernel_single(source_name: str, color_name: str,
                        color_of: dict = COLOR_OF) -> Kernel:
    """Deterministic coloring of one source by ``color_of``, whose keys are
    the source's symbols (no side-information input)."""
    src = Alphabet(source_name, tuple(color_of))
    col = Alphabet(color_name, BITS)
    return Kernel.deterministic((src,), (col,), lambda s: color_of[s])


def side_info_kernel() -> Kernel:
    """Decoder side information z = |u1 - u2| of the ternary sources.

    The zero-difference symbol exists only to keep the map total; it has no
    mass under the off-diagonal source.
    """
    a1 = Alphabet("u1", TERNARY)
    a2 = Alphabet("u2", TERNARY)
    z = Alphabet("z", ("0", "1", "2"))
    return Kernel.deterministic((a1, a2), (z,),
                                lambda a, b: str(abs(int(a) - int(b))))


def ternary_with_side_info() -> JointPMF:
    """Three-axis joint (u1, u2, z) with z the absolute source difference."""
    return compose(ternary_source_joint(), [side_info_kernel()])


def _flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def _adder_color_system(base: JointPMF, color_of: dict, f: FunctionTable, decode: dict,
                        distortion: DistortionTable, target_d: float,
                        x_marginal: tuple | None = None) -> SystemSpec:
    """The shape both bundled systems share.

    The sources are ``base``'s two axes with one-symbol side information
    everywhere. Each source is colored onto a bit by ``color_of``, the colors
    ride the adder channel as x1 = c1, x2 = 1 - c2, and the decoder reads
    ``decode`` on the color pair. With ``x_marginal``, the two channel inputs
    are instead drawn from it independently of everything else.
    """
    u1, u2 = base.axes
    z1, z2, z = _singleton("z1"), _singleton("z2"), _singleton("z")
    c1 = Alphabet("c1", BITS)
    c2 = Alphabet("c2", BITS)
    source = JointPMF((u1, u2, z1, z2, z), base.mass[:, :, None, None, None])

    w1 = Kernel.deterministic((u1, z1), (c1,), lambda s, _: color_of[s])
    w2 = Kernel.deterministic((u2, z2), (c2,), lambda s, _: color_of[s])
    mac = adder_mac()
    x1_axis, x2_axis = mac.input_alphabets
    if x_marginal is None:
        x1 = Kernel.deterministic((c1,), (x1_axis,), lambda c: c)
        x2 = Kernel.deterministic((c2,), (x2_axis,), _flip)
    else:
        x1 = Kernel.constant((c1,), (x1_axis,), x_marginal)
        x2 = Kernel.constant((c2,), (x2_axis,), x_marginal)

    decoder = FunctionTable.from_callable((c1, c2, z), lambda a, b, _: decode[(a, b)])
    return SystemSpec(source, w1, w2, x1, x2, mac, f, decoder, distortion,
                      target_d=target_d)


def section5_system(code: str = "joint") -> SystemSpec:
    """Ternary comparison over the adder channel.

    ``code="joint"``: colors mapped to correlated channel inputs (x1 = c1,
    x2 = 1 - c2). ``code="independent"``: channel inputs drawn from the
    product of the color marginals, independent of everything else.

    The color pair (0, 0) is ambiguous for the comparison function (it
    covers source pairs with both outputs), so the decoder is the majority
    rule and the target distortion is the resulting 1/6.
    """
    if code == "joint":
        x_marginal = None
    elif code == "independent":
        x_marginal = (2.0 / 3.0, 1.0 / 3.0)  # each color is 0 with probability 2/3
    else:
        raise ValueError(f"code must be 'joint' or 'independent', got {code!r}")
    decode = {("0", "0"): 0, ("0", "1"): 0, ("1", "0"): 1, ("1", "1"): 0}
    distortion = DistortionTable((0, 1), (0, 1), [[0.0, 1.0], [1.0, 0.0]])
    return _adder_color_system(ternary_source_joint(), COLOR_OF, comparison_function(),
                               decode, distortion, 1.0 / 6.0, x_marginal)


# --- quantized-cell system -------------------------------------------------

# Cells per source of the quantized-cell system: with more, two colors no
# longer identify the center gap on the off-diagonal support.
GRID_CELLS = 3
# the cell midpoints of the unit interval as exact fractions, and the
# alternating 2-coloring of the path-shaped cell confusability graph
GRID_CENTERS = tuple(Fraction(2 * i + 1, 2 * GRID_CELLS) for i in range(GRID_CELLS))
GRID_COLOR_OF = {str(i + 1): str(i % 2) for i in range(GRID_CELLS)}


def grid_cell_function(name1: str = "w1", name2: str = "w2") -> FunctionTable:
    """Absolute difference of the grid cells' centers, with exact fraction labels."""
    q = GridQuantizer(0.0, 1.0, GRID_CELLS)
    axes = (q.cell_alphabet(name1), q.cell_alphabet(name2))
    return FunctionTable.from_callable(
        axes, lambda a, b: abs(GRID_CENTERS[int(a) - 1] - GRID_CENTERS[int(b) - 1]))


def grid_system(target_d: float = 1.0 / 6.0) -> SystemSpec:
    """Quantized-cell absolute difference over the adder channel via colors;
    the decoder reads the center gap off the color pair."""
    f = grid_cell_function("u1", "u2")
    gap1 = GRID_CENTERS[1] - GRID_CENTERS[0]
    gap2 = GRID_CENTERS[2] - GRID_CENTERS[0]
    decode = {("0", "0"): gap2, ("0", "1"): gap1,
              ("1", "0"): gap1, ("1", "1"): Fraction(0)}
    labels = sorted(set(f.range_labels()) | set(decode.values()))
    costs = [[float(abs(a - b)) for b in labels] for a in labels]
    distortion = DistortionTable(tuple(labels), tuple(labels), costs)
    return _adder_color_system(offdiagonal_cell_pmf(GRID_CELLS, "u1", "u2"), GRID_COLOR_OF,
                               f, decode, distortion, target_d)
