"""Independent references the tests compare the package against.

Each is written from the definitions, apart from the net cache and the
row arithmetic of `seqembed.spaces`: the sup over all grid directions
through a level, the difference of two PL functions on the union of
their breakpoints, the value of a point mass at a grid point, the
nested order of a dyadic grid, the closed-form count of lattice net
points, and every cluster of a window, each built by its own mask pass.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from seqembed import ClusterEstimate, FiniteDimLp, KindMismatch, PLFunction
from seqembed.errors import EmptyWindow
from seqembed.seqcore import _bucket


def net_size_through_level(dim: int, level: int) -> int:
    """Net points of a `dim`-dimensional lattice net through `level`:
    level t holds the (2t+1)^dim - 1 nonzero rows of {-t..t}^dim."""
    return sum((2 * t + 1) ** dim - 1 for t in range(1, level + 1))


def brute_force_sup(space: FiniteDimLp, x, level: int) -> float:
    """max |phi(x)| over functionals dual to all grid directions
    through `level`, enumerated and normed independently of the
    space's net cache. Cross-checks both the norm and achieved defects.
    """
    if getattr(space, "kind", None) != FiniteDimLp.kind:   # not a CustomNet
        raise KindMismatch("brute_force_sup needs a finite-dimensional p-norm space")
    if level < 1:
        raise ValueError(f"level = {level} must be >= 1")
    x = space.canonical(x)
    p = space.p
    best = 0.0
    for t in range(1, level + 1):
        for w in itertools.product(range(-t, t + 1), repeat=space.dim):
            if not any(w):
                continue
            w = np.array(w, dtype=float)
            if math.isinf(p):
                nw = np.max(np.abs(w))
            else:
                nw = np.sum(np.abs(w) ** p) ** (1.0 / p)
            u = w / nw
            if math.isinf(p):
                i = int(np.argmax(np.abs(u) >= 1.0 - 1e-12))
                val = math.copysign(1.0, u[i]) * x[i]
            elif p == 1.0:
                val = float(np.dot(np.sign(u), x))
            else:
                val = float(np.dot(np.sign(u) * np.abs(u) ** (p - 1.0), x))
            best = max(best, abs(val))
    return best


def pl_subtract(x: PLFunction, y: PLFunction) -> PLFunction:
    """x - y on the union of their breakpoints."""
    breaks = np.union1d(x.breaks, y.breaks)
    vals = np.interp(breaks, x.breaks, x.values) - np.interp(breaks, y.breaks, y.values)
    return PLFunction(tuple(float(b) for b in breaks), tuple(float(v) for v in vals))


def point_mass_value(x: PLFunction, phi) -> float:
    """phi(x) for a c01 duality row phi over the grid of len(phi) points,
    in grid order: the sign of its one nonzero entry times x at that
    grid point, interpolated there on its own."""
    i = int(np.flatnonzero(phi)[0])
    t = np.linspace(0.0, 1.0, len(phi))[i]
    return float(phi[i]) * float(np.interp(t, x.breaks, x.values))


def nested_order(width: int) -> list:
    """The indices 0..width-1 of the grid i / (width - 1), a dyadic one,
    listed coarsest point first: by the denominator of i / (width - 1)
    in lowest terms, then by i, so 0, 1, 1/2, 1/4, 3/4, 1/8, ..."""
    return sorted(range(width), key=lambda i: (Fraction(i, width - 1).denominator, i))


def all_cluster_estimates(s, window: range, cell_width: float) -> list:
    """One ClusterEstimate per nonempty cell of `window`'s coordinates
    (by `seqcore._bucket`), in cell order, so ascending value; their
    member arrays tile the window. Each cell is built by a mask pass of
    its own, so `cluster_estimates`' end cells and count of nonempty
    cells can be checked against the first and last of these."""
    if not isinstance(window, range) or window.step != 1:
        raise ValueError(f"window {window!r} is not a range of step 1")
    if len(window) == 0:
        raise EmptyWindow("empty window")
    if cell_width <= 0:
        raise ValueError(f"cell_width {cell_width} must be positive")

    indices = np.arange(window.start, window.stop, dtype=np.int64)
    vals = s.coordinates(window.start, window.stop - 1)

    b = s.bound
    width = cell_width if b != 0.0 else 0.0     # bound 0: one cell, the point 0
    cells = _bucket(vals, b, width)
    out = []
    for cell in np.unique(cells):
        mask = cells == cell
        mid = -b + (cell + 0.5) * width
        members = vals[mask]
        out.append(ClusterEstimate(indices[mask], members, float(mid),
                                   float(np.max(np.abs(members - mid)))))
    return out


def end_cluster_estimates(s, window: range, cell_width: float, least: int):
    """`cluster_estimates`' (ends, seen), read off `all_cluster_estimates`:
    the first and the last cell with at least `least` members, and the
    number of cells."""
    every = all_cluster_estimates(s, window, cell_width)
    full = [c for c in every if len(c.indices) >= least]
    return full[:1] + full[1:][-1:], len(every)
