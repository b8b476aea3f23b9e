"""Road geometry, vehicle placement, wrap-around mobility and distances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coexsim.engine import EngineConfig
from coexsim.scenario import (
    Fleet,
    RoadConfig,
    advance_positions,
    distance_matrix,
    itsg5_count,
    round_half_away,
    spawn,
    vehicle_count,
)

from oracles import advance, distance_m


def test_round_half_away_from_zero():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(2.4) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(-1.5) == -2


def test_vehicle_count_default_road():
    # 2 km at 61.5 veh/km -> 123 vehicles.
    assert vehicle_count(RoadConfig()) == 123


def test_vehicle_count_rounds_half_up():
    cfg = RoadConfig(length_m=1000.0, density_veh_per_km=61.5)
    assert vehicle_count(cfg) == 62


def test_itsg5_count_matches_fraction_for_all_small_populations():
    for n in range(0, 1001):
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            c = itsg5_count(n, frac)
            assert 0 <= c <= n
            assert abs(c - frac * n) <= 0.5
    assert itsg5_count(123, 0.0) == 0
    assert itsg5_count(123, 1.0) == 123


def test_spawn_population_and_fields(rng):
    road = RoadConfig()
    fleet = spawn(road, 0.5, rng)
    assert isinstance(fleet, Fleet)
    assert fleet.pos_m.shape == fleet.lane.shape == fleet.is_lte.shape == (123,)
    assert fleet.is_lte.dtype == bool
    assert (~fleet.is_lte).sum() == itsg5_count(123, 0.5) == 62
    assert ((fleet.pos_m >= 0.0) & (fleet.pos_m < road.length_m)).all()
    assert ((fleet.lane >= 0) & (fleet.lane < 2 * road.lanes_per_direction)).all()


def test_spawn_spreads_positions(rng):
    road = RoadConfig()
    pos = spawn(road, 1.0, rng).pos_m
    # Uniform placement: both road halves populated.
    assert (pos < road.length_m / 2).any()
    assert (pos >= road.length_m / 2).any()


def test_spawn_zero_vehicles(rng):
    road = RoadConfig(length_m=100.0, density_veh_per_km=1.0)
    assert vehicle_count(road) == 0
    fleet = spawn(road, 0.5, rng)
    assert fleet.pos_m.size == fleet.lane.size == fleet.is_lte.size == 0


def move(pos_m, sign, dt_s):
    """One vehicle on the default road through the engine's mobility step."""
    road = RoadConfig()
    out = advance_positions(np.array([pos_m]), np.array([sign]), road.speed_mps,
                            dt_s, road.length_m)
    return float(out[0])


def test_advance_wraps_forward():
    assert move(1990.0, 1, 1.0) == pytest.approx(28.889, abs=1e-9)


def test_advance_wraps_backward():
    assert move(10.0, -1, 1.0) == pytest.approx(2000.0 - 28.889, abs=1e-9)


def test_advance_rejects_negative_dt():
    # The engine's mobility step is mobility_update_ms; it cannot be <= 0.
    assert EngineConfig(mobility_update_ms=-100).validate()
    assert EngineConfig(mobility_update_ms=0).validate()


def test_road_config_rejects_non_positive_lane_width():
    assert RoadConfig().validate() == []
    assert RoadConfig(lane_width_m=0.0).validate() == ["lane_width_m must be > 0"]
    assert RoadConfig(lane_width_m=-4.0).validate() == ["lane_width_m must be > 0"]


def test_advance_mobility_tick_distance():
    assert move(100.0, 1, 0.1) - 100.0 == pytest.approx(3.8889, abs=1e-4)


@given(
    pos=st.lists(st.floats(0.0, 1999.999), min_size=1, max_size=8),
    dt=st.floats(0.0, 100.0),
)
def test_advance_positions_stay_on_road(pos, dt):
    length = 2000.0
    signs = np.resize(np.array([1, -1]), len(pos))
    out = advance_positions(np.array(pos), signs, 38.889, dt, length)
    assert ((out >= 0.0) & (out < length)).all()


def test_advance_positions_matches_scalar():
    road = RoadConfig()
    pos = np.array([1990.0, 10.0])
    signs = np.array([1, -1])
    out = advance_positions(pos, signs, road.speed_mps, 2.5, road.length_m)
    for p, sign, got in zip(pos, signs, out):
        assert got == pytest.approx(advance(p, sign, road, 2.5), abs=1e-9)


def pair_distance(pos, lanes):
    """Distance between two vehicles 4 m lanes apart, through the engine's
    distance matrix."""
    mat = distance_matrix(np.array(pos), np.array(lanes), 4.0)
    return float(mat[0, 1])


def test_lateral_offset():
    assert pair_distance([100.0, 100.0], [0, 0]) == 0.0
    assert pair_distance([100.0, 100.0], [0, 3]) == 12.0


def test_distance_same_lane():
    assert pair_distance([100.0, 250.0], [0, 0]) == pytest.approx(150.0)


def test_distance_lateral_only():
    assert pair_distance([100.0, 100.0], [0, 3]) == pytest.approx(12.0)


def test_distance_diagonal():
    # 30 m along, 4 lanes apart (16 m): a 3-4-5 triangle scaled.
    d = pair_distance([0.0, 30.0], [0, 4])
    assert d == pytest.approx(math.hypot(30.0, 16.0))
    assert d == pytest.approx(34.0)


def test_distance_does_not_wrap():
    assert pair_distance([10.0, 1990.0], [0, 0]) == pytest.approx(1980.0)


@given(
    data=st.lists(
        st.tuples(st.floats(0.0, 1999.0), st.integers(0, 5)),
        min_size=3, max_size=3,
    )
)
def test_distance_symmetry_and_triangle_inequality(data):
    pos, lanes = zip(*data)
    d = distance_matrix(np.array(pos), np.array(lanes), 4.0)
    assert d[0, 1] == pytest.approx(d[1, 0])
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9


def test_distance_matrix_matches_pairwise(rng):
    road = RoadConfig()
    fleet = spawn(road, 0.5, rng)
    pos, lanes = fleet.pos_m[:15], fleet.lane[:15]
    mat = distance_matrix(pos, lanes, road.lane_width_m)
    assert mat.shape == (15, 15)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)
    for i in (0, 4, 9):
        for j in (2, 7, 14):
            assert mat[i, j] == pytest.approx(
                distance_m(pos[i], lanes[i], pos[j], lanes[j], road.lane_width_m))
