"""Uniform grids, sampled fields and discrete calculus.

Grids are uniform, 1-D or tensor-box, periodic or bounded per axis.  All
derivative stencils are second order: central differences in the interior,
one-sided three/four point stencils at bounded edges, wrap-around on
periodic axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "Grid1D",
    "GridND",
    "Field",
    "gradient",
    "hessian",
    "field_to_csv",
]


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid on [x_lo, x_hi].

    Periodic grids carry ``n_cells`` nodes (x_hi identified with x_lo),
    bounded grids carry ``n_cells + 1`` nodes including both endpoints.
    ``axes`` and ``shape`` are those of a one-axis GridND.
    """

    x_lo: float
    x_hi: float
    n_cells: int
    topology: str = "bounded"

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise GridError(f"x_lo={self.x_lo} must be < x_hi={self.x_hi}")
        if self.n_cells < 4:
            raise GridError(f"n_cells={self.n_cells} must be >= 4")
        if self.topology not in ("periodic", "bounded"):
            raise GridError(f"unknown topology {self.topology!r}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells if self.topology == "periodic" else self.n_cells + 1

    @property
    def axes(self) -> tuple[Grid1D]:
        return (self,)

    @property
    def shape(self) -> tuple[int]:
        return (self.n_nodes,)

    def nodes(self) -> np.ndarray:
        if self.topology == "periodic":
            return self.x_lo + self.h * np.arange(self.n_cells)
        return np.linspace(self.x_lo, self.x_hi, self.n_cells + 1)


@dataclass(frozen=True)
class GridND:
    """Tensor-product grid, one Grid1D descriptor per axis (dimension <= 3)."""

    axes: tuple[Grid1D, ...]

    def __post_init__(self):
        if len(self.axes) < 1:
            raise GridError("GridND needs at least one axis")
        if len(self.axes) > 3:
            raise GridError("GridND supports dimension <= 3")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n_nodes for ax in self.axes)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[ax.nodes() for ax in self.axes], indexing="ij"))


@dataclass(frozen=True)
class Field:
    """Sampled solution values on a grid at one time instant."""

    grid: Grid1D | GridND
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.shape:
            raise GridError(
                f"value shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("field values must be finite")
        if self.time < 0:
            raise GridError("time must be nonnegative")

    @property
    def ndim(self) -> int:
        return len(self.grid.shape)

    def with_values(self, values: np.ndarray, time: float | None = None) -> "Field":
        return Field(self.grid, values, self.time if time is None else time)


def _unchecked_field(grid, values: np.ndarray, time: float) -> Field:
    """A Field without ``__post_init__``'s checks, for float64 values that
    the caller knows to be finite and of the grid's shape."""
    f = object.__new__(Field)
    f.__dict__.update(grid=grid, values=values, time=time)
    return f


def _diff1(values: np.ndarray, axis: int, ax: Grid1D) -> np.ndarray:
    """Second-order first derivative along one axis."""
    h = ax.h
    if ax.topology == "periodic":
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2 * h)
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    o[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    o[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return out


def _diff2(values: np.ndarray, axis: int, ax: Grid1D) -> np.ndarray:
    """Second-order second derivative along one axis (3-point interior)."""
    h2 = ax.h ** 2
    if ax.topology == "periodic":
        return (np.roll(values, -1, axis) - 2 * values + np.roll(values, 1, axis)) / h2
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h2
    o[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h2
    o[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h2
    return out


def gradient(f: Field) -> np.ndarray:
    """Discrete gradient; shape = grid shape + (ndim,)."""
    axes = f.grid.axes
    comps = [_diff1(f.values, i, ax) for i, ax in enumerate(axes)]
    return np.stack(comps, axis=-1)


def hessian(f: Field) -> np.ndarray:
    """Discrete Hessian; shape = grid shape + (ndim, ndim).

    Diagonal entries use the 3-point second-derivative stencil; mixed
    partials are nested first differences (symmetrized).
    """
    axes = f.grid.axes
    n = len(axes)
    H = np.empty(f.values.shape + (n, n))
    firsts = [_diff1(f.values, i, ax) for i, ax in enumerate(axes)]
    for i in range(n):
        H[..., i, i] = _diff2(f.values, i, axes[i])
        for j in range(i + 1, n):
            mij = _diff1(firsts[i], j, axes[j])
            mji = _diff1(firsts[j], i, axes[i])
            H[..., i, j] = H[..., j, i] = 0.5 * (mij + mji)
    return H


def _coordinate_cells(grid) -> list:
    """The coordinate cells "x0,...," of every row, in the C order of the
    grid's values (meshgrid "ij"); each node coordinate is formatted once."""
    per_axis = [[repr(x) + "," for x in ax.nodes()] for ax in grid.axes]
    return ["".join(cells) for cells in itertools.product(*per_axis)]


def _write_csv(f: Field, path, coordinate_cells: list) -> None:
    """One write of the bytes csv.writer gives for rows of repr cells: a
    header, then the coordinates and value of each node, CRLF after every
    line.  No cell holds a delimiter, quote or line break, so none is quoted."""
    header = ",".join([f"x{i}" for i in range(len(f.grid.axes))] + ["value"])
    rows = [c + repr(v) for c, v in zip(coordinate_cells, f.values.ravel())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header] + rows) + "\r\n")


def field_to_csv(f: Field, path) -> None:
    """Write f as CSV: columns x0, ..., value, one row per node."""
    _write_csv(f, path, _coordinate_cells(f.grid))


def _grid_to_jsonable(grid) -> list:
    """The fields of each axis of the grid, one dict per axis."""
    return [{"x_lo": ax.x_lo, "x_hi": ax.x_hi, "n_cells": ax.n_cells, "topology": ax.topology}
            for ax in grid.axes]
