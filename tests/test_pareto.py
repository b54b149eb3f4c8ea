import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_front

from boolfc.dataset import Dataset
from boolfc.pareto import (
    SWEEP_CSV_HEADER,
    Solution,
    closest_point,
    pareto_front,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from boolfc.ufc import FixedMode, UfcConfig, ufc_run


def sol(oi, c0, lam=0.1, it=1):
    return Solution(
        threshold=lam, limit_iter=it, num_features=5, oi=oi, c0=c0,
        c1=1.0, rms=math.sqrt((oi * oi + c0 * c0) / 2),
    )


def correlated_dataset(seed=0, n=150, k=5):
    rng = np.random.default_rng(seed)
    base = rng.random(n) < 0.5
    cols = {}
    for i in range(k):
        if i % 2 == 0:
            cols[f"f{i}"] = base ^ (rng.random(n) < 0.15)
        else:
            cols[f"f{i}"] = rng.random(n) < 0.5
    return Dataset(list(cols), np.column_stack(list(cols.values())))


# -- pareto_front ----------------------------------------------------------


def test_front_drops_dominated_point():
    sols = [sol(0.1, 0.5), sol(0.2, 0.2), sol(0.5, 0.1), sol(0.3, 0.3)]
    front = pareto_front(sols)
    assert [(s.oi, s.c0) for s in front] == [(0.1, 0.5), (0.2, 0.2), (0.5, 0.1)]


def test_front_single_solution():
    s = sol(0.4, 0.4)
    assert pareto_front([s]) == [s]


def test_front_collapses_coordinate_duplicates():
    first = sol(0.2, 0.2, lam=0.1)
    second = sol(0.2, 0.2, lam=0.3)
    front = pareto_front([first, second])
    assert front == [first]


def test_front_matches_quadratic_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        sols = [
            sol(round(float(rng.random()), 2), round(float(rng.random()), 2),
                lam=float(rng.random()), it=int(rng.integers(1, 5)))
            for _ in range(25)
        ]
        assert pareto_front(sols) == brute_front(sols)


# coordinates on a 1/q lattice, q <= 5, so equal OI, equal C0 and equal
# points are frequent; the thresholds tell duplicates apart
_lattice = st.integers(1, 5).flatmap(
    lambda q: st.integers(0, q).map(lambda i: i / q))


@given(st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_front_matches_quadratic_oracle_on_tied_lattices(points):
    sols = [sol(oi, c0, lam=i / 100) for i, (oi, c0) in enumerate(points)]
    assert pareto_front(sols) == brute_front(sols)


# -- closest_point -----------------------------------------------------------


def test_closest_point_arithmetic():
    sols = [sol(0.2, 0.2), sol(0.1, 0.5), sol(0.5, 0.1)]
    best = closest_point(sols)
    assert (best.oi, best.c0) == (0.2, 0.2)
    assert best.distance_to_origin() == pytest.approx(math.sqrt(0.08))


def test_closest_point_origin_wins():
    sols = [sol(0.0, 0.0), sol(0.01, 0.0)]
    assert closest_point(sols).oi == 0.0


def test_closest_point_tie_breaks():
    a = sol(0.3, 0.4, lam=0.2, it=3)
    b = sol(0.4, 0.3, lam=0.5, it=1)  # same distance, smaller c0
    assert closest_point([a, b]) is b


def test_closest_point_always_on_front():
    rng = np.random.default_rng(2)
    for _ in range(20):
        sols = [
            sol(float(rng.random()), float(rng.random()), lam=float(rng.random()))
            for _ in range(30)
        ]
        assert closest_point(sols) in pareto_front(sols)


def test_closest_point_empty_is_error():
    with pytest.raises(ValueError, match="^closest_point needs at least one solution$"):
        closest_point([])


# -- sweep -------------------------------------------------------------------


def test_sweep_grid_shape():
    d = correlated_dataset()
    sols = sweep(d, [0.1], [1, 2])
    assert len(sols) == 2
    assert {s.threshold for s in sols} == {0.1}
    assert [s.limit_iter for s in sols] == [1, 2]


def test_sweep_trajectory_reuse_equals_independent_runs():
    d = correlated_dataset(seed=3)
    thresholds = [0.1, 0.25, 0.4]
    iters = [1, 2, 3]
    sols = sweep(d, thresholds, iters)
    for s in sols:
        res = ufc_run(d, UfcConfig(FixedMode(s.threshold, s.limit_iter)))
        rep = res.trajectory[-1]
        assert s.oi == pytest.approx(rep.oi)
        assert s.c0 == pytest.approx(rep.c0)
        assert s.num_features == rep.m


def test_sweep_monotone_along_iterations():
    d = correlated_dataset(seed=4)
    sols = sweep(d, [0.1], [1, 2, 3, 4])
    ois = [s.oi for s in sols]
    c0s = [s.c0 for s in sols]
    assert ois == sorted(ois, reverse=True)
    assert c0s == sorted(c0s)


def test_sweep_rejects_empty_grids():
    d = correlated_dataset()
    with pytest.raises(ValueError, match="^sweep grids must be non-empty$"):
        sweep(d, [], [1])
    with pytest.raises(ValueError, match="^sweep grids must be non-empty$"):
        sweep(d, [0.1], [])
    with pytest.raises(ValueError, match="iteration counts must be >= 1"):
        sweep(d, [0.3], [0])


# -- CSV ----------------------------------------------------------------------


def test_sweep_csv_roundtrip():
    d = correlated_dataset(seed=5)
    sols = sweep(d, [0.1, 0.3], [1, 2])
    buf = io.StringIO()
    write_sweep_csv(sols, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == SWEEP_CSV_HEADER
    back = read_sweep_csv(io.StringIO(text))
    assert len(back) == len(sols)
    for s, b in zip(sols, back):
        assert b.threshold == pytest.approx(s.threshold)
        assert b.oi == pytest.approx(s.oi)
        assert b.num_features == s.num_features


def test_read_sweep_csv_rejects_bad_header():
    with pytest.raises(ValueError, match=r"^unexpected sweep CSV header: \['nope', 'nope'\]$"):
        read_sweep_csv(io.StringIO("nope,nope\n"))


_GOOD_ROW = "0.1,2,5,0.25,0.5,2,0.4"


def test_read_sweep_csv_short_row_names_line():
    # a quoted cell spanning lines 2 and 3 puts the short row on line 4,
    # numbered as the dataset loader numbers it
    for first, line in ((_GOOD_ROW, 3), ('"0.1\n"' + _GOOD_ROW[3:], 4)):
        text = f"{SWEEP_CSV_HEADER}\n{first}\n0.1,2,5,0.25,0.5\n"
        with pytest.raises(ValueError,
                           match=f"^line {line}: expected 7 cells, got 5$"):
            read_sweep_csv(io.StringIO(text))


def test_read_sweep_csv_non_numeric_cell_names_line():
    # a non-finite real would break the front's OI order, so it is refused
    for row, match in (("0.1,x,5,0.25,0.5,2,0.4", r".*'x'"),
                       ("0.1,2,5,nan,0.5,2,0.4", r"oi must be finite, got 'nan'"),
                       ("0.1,2,5,0.2,inf,2,0.4", r"c0 must be finite, got 'inf'"),
                       ("-inf,2,5,0.2,0.5,2,0.4", r"lambda must be finite"),
                       ("0.1,2,5,0.2,0.5,NaN,0.4", r"c1 must be finite"),
                       ("0.1,2,5,0.2,0.5,2,Infinity", r"rms must be finite")):
        text = f"{SWEEP_CSV_HEADER}\n{_GOOD_ROW}\n\n{row}\n"
        with pytest.raises(ValueError, match=f"^line 4: {match}"):
            read_sweep_csv(io.StringIO(text))
