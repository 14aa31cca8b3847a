import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab.fields import (
    Field,
    Grid1D,
    GridND,
    field_to_csv,
    gradient,
    hessian,
)


def test_grid_node_counts():
    per = Grid1D(0.0, 1.0, 8, "periodic")
    bnd = Grid1D(0.0, 1.0, 8, "bounded")
    assert per.n_nodes == 8
    assert bnd.n_nodes == 9
    assert per.h == bnd.h == 0.125
    assert per.nodes()[-1] == pytest.approx(1.0 - per.h)
    assert bnd.nodes()[-1] == pytest.approx(1.0)


def test_grid1d_has_the_gridnd_interface():
    bnd = Grid1D(0.0, 1.0, 8, "bounded")
    assert bnd.axes == GridND((bnd,)).axes == (bnd,)
    assert bnd.shape == GridND((bnd,)).shape == (9,)
    box = GridND((bnd, Grid1D(0.0, 1.0, 4, "periodic")))
    assert box.shape == (9, 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 8, "torus")
    with pytest.raises(ValueError):
        GridND(axes=(Grid1D(0, 1, 8),) * 4)


def test_field_shape_and_finiteness():
    g = Grid1D(0.0, 1.0, 8, "bounded")
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))  # bounded grid has 9 nodes
    with pytest.raises(ValueError):
        Field(g, np.full(9, np.nan))


def _order(errors):
    errors = np.asarray(errors)
    return np.log2(errors[:-1] / errors[1:])


@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_gradient_second_order_1d(topology):
    errs = []
    for n in (32, 64, 128):
        g = Grid1D(0.0, 2 * np.pi, n, topology)
        x = g.nodes()
        f = Field(g, np.sin(x))
        errs.append(np.max(np.abs(gradient(f)[..., 0] - np.cos(x))))
    assert np.all(_order(errs) > 1.8)


def test_hessian_second_order_2d():
    errs = []
    for n in (16, 32, 64):
        g = GridND((Grid1D(0, 1, n), Grid1D(0, 1, n)))
        X, Y = g.meshgrid()
        f = Field(g, np.sin(2 * X) * np.cos(Y))
        H = hessian(f)
        exact_xy = -2 * np.cos(2 * X) * np.sin(Y)
        errs.append(np.max(np.abs(H[..., 0, 1] - exact_xy)))
        assert np.allclose(H[..., 0, 1], H[..., 1, 0])
    assert np.all(_order(errs) > 1.8)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_gradient_exact_on_linear(a, b):
    g = Grid1D(-1.0, 1.0, 16, "bounded")
    x = g.nodes()
    f = Field(g, a * x + b)
    assert np.allclose(gradient(f)[..., 0], a, atol=1e-10 * (1 + abs(a) + abs(b)))


def test_csv_export(tmp_path):
    g = Grid1D(0, 1, 4)
    f = Field(g, np.linspace(0, 1, 5))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x0,value"
    assert len(rows) == 6


def _csv_reference(f):
    """The bytes of f written row by row with csv.writer and repr cells."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow([f"x{i}" for i in range(len(f.grid.axes))] + ["value"])
    coords = np.meshgrid(*[ax.nodes() for ax in f.grid.axes], indexing="ij")
    for row in zip(*[c.ravel() for c in coords], f.values.ravel()):
        w.writerow([repr(v) for v in row])
    return buf.getvalue().encode()


CSV_VALUES = [-0.0, 1e-05, 123456.789, 1e+16, -2.5, 0.1, 1.0 / 3.0]


def test_csv_bytes_match_csv_writer_1d(tmp_path):
    g = Grid1D(-1.0, 1.0, 6)
    f = Field(g, np.array(CSV_VALUES), time=0.5)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    assert path.read_bytes() == _csv_reference(f)


def test_csv_bytes_match_csv_writer_2d(tmp_path):
    # the smallest axes a grid allows: 4 periodic nodes by 5 bounded ones
    g = GridND((Grid1D(0.0, 1.0, 4, "periodic"), Grid1D(-0.3, 0.7, 4)))
    vals = np.resize(CSV_VALUES, g.shape) * np.arange(1, 21).reshape(g.shape) ** 0.5
    vals[0, 0] = -0.0
    f = Field(g, vals)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    assert path.read_bytes() == _csv_reference(f)
    rows = path.read_bytes().split(b"\r\n")
    assert rows[0] == b"x0,x1,value" and rows[-1] == b"" and len(rows) == 4 * 5 + 2


def test_trajectory_export_matches_field_to_csv(tmp_path):
    from flowlab.solver import Trajectory, snapshot_file_name

    g = GridND((Grid1D(0.0, 2.0, 4, "periodic"), Grid1D(0.0, 1.0, 5)))
    traj = Trajectory()
    for k, t in enumerate((0.0, 0.125, 0.3)):
        traj.append(t, Field(g, np.sin(np.arange(4 * 6).reshape(g.shape) + k), time=t))
    traj.export(tmp_path / "out")
    for t, f in traj.snapshots:
        name = snapshot_file_name(t)
        field_to_csv(f, tmp_path / name)
        assert (tmp_path / "out" / "fields" / name).read_bytes() == (tmp_path / name).read_bytes()
