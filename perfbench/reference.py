"""Reference answers the benchmark checks fcmac's outputs against.

Everything here is plain numpy or plain Python on the arrays the benchmark
generated itself. Nothing imports fcmac, so a defect in fcmac cannot hide
in its own reference.
"""

from __future__ import annotations

import numpy as np

# Axis order of the ten-axis system joint.
AXES = ("u1", "u2", "z1", "z2", "z", "w1", "w2", "x1", "x2", "y")

# (lhs, rhs) of each rate inequality as I(a; b | given), axis names as in AXES.
INEQUALITIES = {
    "encoder1": ((("u1", "z1"), ("w1",), ("w2", "z")),
                 (("x1",), ("y",), ("x2", "w2", "z"))),
    "encoder2": ((("u2", "z2"), ("w2",), ("w1", "z")),
                 (("x2",), ("y",), ("x1", "w1", "z"))),
    "sum": ((("u1", "u2", "z1", "z2"), ("w1", "w2"), ("z",)),
            (("x1", "x2"), ("y",), ("z",))),
}


def _entropy_bits(mass: np.ndarray) -> float:
    p = mass[mass > 0]
    return float(-np.sum(p * np.log2(p)))


def _mi_terms(a, b, given):
    """I(a; b | g) = H(a g) + H(b g) - H(a b g) - H(g), as signed axis sets."""
    g = tuple(given)
    return [(1, tuple(a) + g), (1, tuple(b) + g), (-1, tuple(a) + tuple(b) + g), (-1, g)]


def system_reference(arrays: dict) -> dict:
    """Dense evaluation of the three rate inequalities and the expected
    distortion of one system.

    ``arrays`` holds ``source`` (u1, u2, z1, z2, z), ``w1`` (u1, z1, w1),
    ``w2`` (u2, z2, w2), ``x1`` (w1, x1), ``x2`` (w2, x2), ``channel``
    (x1, x2, y), the integer label tables ``function`` (u1, u2) and
    ``decoder`` (w1, w2, z), and the ``distortion`` matrix. The joint is built
    one u1 slice at a time, so memory stays at one slice plus the marginals.
    """
    src, kw1, kw2 = arrays["source"], arrays["w1"], arrays["w2"]
    kx1, kx2, ch = arrays["x1"], arrays["x2"], arrays["channel"]
    sizes = dict(zip(AXES, src.shape + (kw1.shape[2], kw2.shape[2],
                                        kx1.shape[1], kx2.shape[1], ch.shape[2])))
    needed = {s for lhs_rhs in INEQUALITIES.values() for mi in lhs_rhs
              for _, s in _mi_terms(*mi) if s}
    needed.add(("u1", "u2", "w1", "w2", "z"))
    marg = {s: np.zeros(tuple(sizes[a] for a in sorted(s, key=AXES.index)))
            for s in needed}
    rest = AXES[1:]
    for i in range(sizes["u1"]):
        # axes of the slice: u2 z1 z2 z w1 w2 x1 x2 y
        joint = np.einsum("bcde,cf,bdg,fh,gi,hij->bcdefghij",
                          src[i], kw1[i], kw2, kx1, kx2, ch)
        for s, m in marg.items():
            keep = sorted(s, key=AXES.index)
            drop = tuple(k for k, a in enumerate(rest) if a not in keep)
            part = joint.sum(axis=drop)
            if "u1" in keep:
                m[i] += part
            else:
                m += part
    h = {s: _entropy_bits(m) for s, m in marg.items()}

    def mi(a, b, given) -> float:
        return sum(sign * (h[s] if s else 0.0) for sign, s in _mi_terms(a, b, given))

    out = {name: (mi(*lhs), mi(*rhs)) for name, (lhs, rhs) in INEQUALITIES.items()}
    m = marg[("u1", "u2", "w1", "w2", "z")].transpose(0, 1, 3, 4, 2)  # stored u1 u2 z w1 w2
    f, g, d = arrays["function"], arrays["decoder"], arrays["distortion"]
    cost = d[f[:, :, None, None, None], g[None, None, :, :, :]]
    out["distortion"] = float(np.sum(m * cost))
    return out


# --- graphs ------------------------------------------------------------------

def adjacency(n: int, edges) -> np.ndarray:
    """Boolean adjacency matrix from index pairs."""
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj


def is_proper(adj: np.ndarray, classes) -> bool:
    c = np.asarray(classes)
    return not bool(np.any(adj & (c[:, None] == c[None, :])))


def class_entropy(classes, mass: np.ndarray) -> float:
    """Entropy in bits of the colour-class masses."""
    totals: dict = {}
    for c, w in zip(classes, mass):
        totals[c] = totals.get(c, 0.0) + float(w)
    return _entropy_bits(np.array(list(totals.values())))


def min_coloring_entropy(adj: np.ndarray, mass: np.ndarray) -> float:
    """Minimum colour-class entropy over all proper partitions, by
    enumerating restricted-growth strings (fine up to about 9 vertices)."""
    n = len(mass)
    best = float("inf")

    def rec(v: int, classes: list, members: list) -> None:
        nonlocal best
        if v == n:
            best = min(best, _entropy_bits(np.array(classes)))
            return
        for c in range(len(classes)):
            if not any(adj[v, u] for u in members[c]):
                classes[c] += mass[v]
                members[c].append(v)
                rec(v + 1, classes, members)
                members[c].pop()
                classes[c] -= mass[v]
        classes.append(float(mass[v]))
        members.append([v])
        rec(v + 1, classes, members)
        members.pop()
        classes.pop()

    rec(0, [], [])
    return best


def zigzag_holds(mass: np.ndarray) -> bool:
    """p(a,b) > 0 and p(c,d) > 0 imply p(a,d) > 0 or p(c,b) > 0.

    Rows a and c violate it exactly when each has a support column the
    other lacks, i.e. when M[a, c] and M[c, a] are both positive for
    M = S (not S)^T.
    """
    s = (mass > 0).astype(np.int64)
    m = s @ (1 - s).T
    return not bool(np.any((m > 0) & (m.T > 0)))


def is_zigzag_witness(mass: np.ndarray, first, second) -> bool:
    (a, b), (c, d) = first, second
    return bool(mass[a, b] > 0 and mass[c, d] > 0 and mass[a, d] == 0 and mass[c, b] == 0)


def characteristic_edges(mass: np.ndarray, labels: np.ndarray, delta=None) -> set:
    """Index pairs (i < j) confusable through some common positive peer."""
    both = (mass > 0)[:, None, :] & (mass > 0)[None, :, :]
    diff = np.abs(labels[:, None, :] - labels[None, :, :])
    far = diff != 0 if delta is None else diff > delta
    hit = np.any(both & far, axis=2)
    return {(int(i), int(j)) for i, j in np.argwhere(np.triu(hit, 1))}
