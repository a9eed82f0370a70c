"""Table 1: communication volume of tensor parallelism.

For ``Y = W X`` with X of shape (b, s, h) and W of shape (h, h), the paper's
rows are:

====  =============================================
1D    ``2 (p-1) * S_X``
2D    ``3 (j-1) * (S_X + S_W)``           (p = j^2)
2.5D  ``3 (k-1) * (S_X / d + S_W)``       (p = d k^2)
3D    ``2 (l-1)/l * (S_X + S_W + S_Y)``   (p = l^3)
====  =============================================

All volumes are in *elements transferred* (the paper's unit).
:func:`tp_comm_volume` is the one statement of the forms, in the
total-wire convention our counters measure (fwd+bwd, summed over every
rank): the 1D and 2D rows as printed, ``3 (k-1) (S_X + d S_W)`` for 2.5D
and ``2 (l-1) (S_X + S_W + S_Y)`` for 3D.  The paper's 2.5D row counts one
of the ``d`` depth grids and its 3D row one ring member, so
:func:`comm_volume_25d` divides the total by ``d`` and
:func:`comm_volume_3d` by ``l``.  The strategy compiler's tensor-parallel
term (``autopar.scoring``) reads the same function.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple


def tp_comm_volume(
    mode: str, p: int, s_x: int, s_w: int, s_y: int, depth: int = 1
) -> Tuple[int, int]:
    """(activation, weight) elements one fwd+bwd of ``Y = W X`` moves over
    all ``p`` ranks of a ``mode`` tensor-parallel group, for input, weight
    and output sizes ``s_x``, ``s_w`` and ``s_y``.

    The forms are linear in the sizes, so the volume of several linears is
    one call on their summed sizes.  Raises ``ValueError`` when ``p`` is not
    the mode's grid: a square (2D), ``depth`` times a square (2.5D) or a
    cube (3D)."""
    if mode == "1d":
        return 2 * (p - 1) * s_x, 0
    if mode == "2d":
        j = math.isqrt(p)
        if j * j != p:
            raise ValueError(f"2D needs a square p, got {p}")
        return 3 * (j - 1) * s_x, 3 * (j - 1) * s_w
    if mode == "2.5d":
        k = math.isqrt(p // depth)
        if k * k * depth != p:
            raise ValueError(f"2.5D needs p = d*k^2, got p={p}, d={depth}")
        return 3 * (k - 1) * s_x, 3 * (k - 1) * depth * s_w
    if mode == "3d":
        l = round(p ** (1 / 3))
        if l**3 != p:
            raise ValueError(f"3D needs a cubic p, got {p}")
        return 2 * (l - 1) * (s_x + s_y), 2 * (l - 1) * s_w
    raise ValueError(f"no Table-1 form for tensor mode {mode!r}")


def _total(mode: str, p: int, b: int, s: int, h: int, depth: int = 1) -> int:
    """Table 1's total-wire volume of the square layer ``W: (h, h)``."""
    return sum(tp_comm_volume(mode, p, b * s * h, h * h, b * s * h, depth))


def comm_volume_1d(p: int, b: int, s: int, h: int) -> float:
    return _total("1d", p, b, s, h)


def comm_volume_2d(p: int, b: int, s: int, h: int) -> float:
    return _total("2d", p, b, s, h)


def comm_volume_25d(p: int, b: int, s: int, h: int, d: int) -> float:
    """The paper's per-grid row: the total over one of the ``d`` grids."""
    return _total("2.5d", p, b, s, h, d) / d


def comm_volume_3d(p: int, b: int, s: int, h: int, total: bool = False) -> float:
    """The paper's per-member row, or with ``total`` the wire total (``l``
    ring members' worth)."""
    volume = _total("3d", p, b, s, h)
    return volume if total else volume / round(p ** (1 / 3))


def comm_volume_table(
    ps: List[int], b: int = 32, s: int = 512, h: int = 1024, depth: int = 2
) -> List[Dict[str, float]]:
    """The Fig 5 dataset: volume per mode for each GPU count (NaN where the
    mode's topology constraint isn't met)."""
    rows = []
    for p in ps:
        row: Dict[str, float] = {"p": p, "1d": comm_volume_1d(p, b, s, h)}
        j = math.isqrt(p)
        row["2d"] = comm_volume_2d(p, b, s, h) if j * j == p else float("nan")
        try:
            row["2.5d"] = comm_volume_25d(p, b, s, h, depth)
        except ValueError:
            row["2.5d"] = float("nan")
        l = round(p ** (1 / 3))
        row["3d"] = comm_volume_3d(p, b, s, h) if l**3 == p else float("nan")
        rows.append(row)
    return rows
