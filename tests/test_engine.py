"""Event engine integration: determinism, accounting, sensing, reception."""

import dataclasses
import gc
import heapq
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim import engine as eng
from coexsim.channel import LinkBudgetConfig, ShadowingConfig, path_loss_db, rx_power_mw
from coexsim.engine import EngineConfig, Simulation
from coexsim.mac_itsg5 import CsmaConfig, Phase, airtime_us
from coexsim.mac_ltev2x import OCCUPIED_US, TTI_US, SpsConfig
from coexsim.scenario import MAX_VEHICLES, Fleet, RoadConfig, fleet_errors
from coexsim.traffic import TrafficConfig, TrafficMode

from conftest import small_engine_config
from oracles import (
    AllCcaEdges,
    ContinuousLte,
    TxLog,
    air_power,
    cca_vector,
    check_accounting,
    record_cca,
)

NO_SHADOW = ShadowingConfig(sigma_db=0.0)


def lane_zero(pos_m, is_lte=None):
    """Vehicles in lane 0 (driving forward) at pos_m, all ITS-G5 unless is_lte says."""
    n = len(pos_m)
    return Fleet(np.array(pos_m, dtype=float), np.zeros(n, dtype=int),
                 np.array(is_lte if is_lte is not None else [False] * n, dtype=bool))


def two_vehicles(d_m=100.0, is_lte=(False, False)):
    return lane_zero([0.0, d_m], is_lte)


def test_event_kind_ordering():
    assert (eng.EV_MOBILITY < eng.EV_TXEND < eng.EV_SLOT < eng.EV_CAM
            < eng.EV_MACTIMER < eng.EV_RUNEND)


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="measure_s"):
        Simulation(small_engine_config(measure_s=0.0), seed=1)
    with pytest.raises(ValueError, match="itsg5_fraction"):
        Simulation(small_engine_config(itsg5_fraction=1.5), seed=1)


@pytest.mark.parametrize("overrides", [
    dict(max_distance_m=np.nan), dict(measure_s=np.nan), dict(warm_up_s=np.inf),
    dict(road=RoadConfig(length_m=np.inf)), dict(relevance_margin_db=np.nan),
    dict(relevance_margin_db=-np.inf), dict(road=RoadConfig(length_m=200.0, speed_mps=np.nan)),
    dict(shadowing=ShadowingConfig(sigma_db=np.nan)),
], ids=["max_distance_nan", "measure_nan", "warm_up_inf", "length_inf", "margin_nan",
        "margin_minus_inf", "speed_nan", "sigma_nan"])
def test_non_finite_values_are_invalid_configuration(overrides):
    # Without the checks these crash outside the collected errors (NaN and
    # inf times, lengths and ranges) or score nothing without warning (NaN
    # margin, speed and shadowing sigma).
    cfg = eng.EngineConfig(**{"road": RoadConfig(length_m=200.0), **overrides})
    with pytest.raises(ValueError, match="invalid configuration"):
        Simulation(cfg, seed=1)


def test_every_float_field_must_be_finite():
    # relevance_margin_db may be +inf; every other float of every section
    # rejects NaN and both infinities.
    sections = [eng.EngineConfig(), RoadConfig(), LinkBudgetConfig(), ShadowingConfig(),
                TrafficConfig(), CsmaConfig(), SpsConfig()]
    for section in sections:
        assert section.validate() == []
        for f in dataclasses.fields(section):
            if not isinstance(getattr(section, f.name), float):
                continue
            for bad in (np.nan, np.inf, -np.inf):
                if (f.name, bad) == ("relevance_margin_db", np.inf):
                    continue
                broken = dataclasses.replace(section, **{f.name: bad})
                assert broken.validate(), (type(section).__name__, f.name, bad)
    assert eng.EngineConfig(relevance_margin_db=np.inf).validate() == []


@pytest.mark.parametrize("overrides, limit", [
    (dict(bin_width_m=1e-300), f"at most {eng.MAX_BINS} bins"),
    (dict(bin_width_m=1e-6), f"at most {eng.MAX_BINS} bins"),
    (dict(road=RoadConfig(density_veh_per_km=1e9)), f"at most {MAX_VEHICLES} vehicles"),
])
def test_histogram_and_fleet_sizes_are_bounded(overrides, limit):
    # validate() only: building these would allocate gigabytes.
    assert [e for e in eng.EngineConfig(**overrides).validate() if limit in e]


def test_size_bounds_admit_the_default_and_dense_scenarios():
    road = RoadConfig()
    at_bound = RoadConfig(density_veh_per_km=MAX_VEHICLES / road.length_m * 1000)
    over = RoadConfig(density_veh_per_km=(MAX_VEHICLES + 1) / road.length_m * 1000)
    dense = RoadConfig(density_veh_per_km=2 * road.density_veh_per_km)
    assert eng.EngineConfig().validate() == []
    assert eng.EngineConfig(road=dense).validate() == []
    assert at_bound.validate() == [] and over.validate()
    assert eng.EngineConfig(max_distance_m=eng.MAX_BINS * 0.5, bin_width_m=0.5).validate() == []
    assert fleet_errors(lane_zero([0.0] * (MAX_VEHICLES + 1)), road) == [
        f"fleet must have at most {MAX_VEHICLES} vehicles"]


@pytest.mark.parametrize("max_m, width_m, ok", [
    (500.0, 10.0, True), (0.3, 0.1, True), (505.0, 10.0, False), (495.0, 10.0, False),
    (500.0, 30.0, False), (5.0, 10.0, False), (np.inf, 10.0, False),
])
def test_histogram_range_must_be_whole_bins(max_m, width_m, ok):
    # The histogram holds round(max / width) bins while every reception
    # nearer than max_distance_m is scored, so the two must agree.
    errors = small_engine_config(max_distance_m=max_m, bin_width_m=width_m).validate()
    assert errors == ([] if ok else ["max_distance_m must be a whole number of bin_width_m"])


TWO_KM = RoadConfig(length_m=2000.0)  # 3 lanes per direction


@pytest.mark.parametrize("fleet,error", [
    (Fleet(np.array([10.0, 20.0]), np.array([0, 9]), np.array([False, True])),
     "fleet lane must hold integers in [0, 6)"),
    (Fleet(np.array([10.0, 20.0]), np.array([0.0, 1.5]), np.array([False, True])),
     "fleet lane must hold integers in [0, 6)"),
    (Fleet(np.array([10.0, 5000.0]), np.array([0, 1]), np.array([False, True])),
     "fleet pos_m must be in [0, length_m)"),
    (Fleet(np.array([-1.0, 20.0]), np.array([0, 1]), np.array([False, True])),
     "fleet pos_m must be in [0, length_m)"),
    (Fleet(np.array([10.0, 20.0, 30.0]), np.array([0, 1]), np.array([False, True, True])),
     "fleet arrays must be 1-D and of equal length"),
    (Fleet(np.array([[10.0, 20.0]]), np.array([[0, 1]]), np.array([[False, True]])),
     "fleet arrays must be 1-D and of equal length"),
    (Fleet(np.array([10.0, 20.0]), np.array([0, 1]), np.array([0, 1])),
     "fleet is_lte must be bool"),
], ids=["lane_9", "fractional_lane", "beyond_road", "negative_pos", "lengths_3_2_3",
        "two_dimensional", "int_is_lte"])
def test_bad_fleet_rejected(fleet, error):
    assert fleet_errors(fleet, TWO_KM) == [error]
    with pytest.raises(ValueError, match=re.escape(error)):
        Simulation(small_engine_config(road=TWO_KM), seed=1, fleet=fleet)


def test_every_fleet_and_config_error_is_reported_at_once():
    fleet = Fleet(np.array([5000.0]), np.array([9]), np.array([1]))
    with pytest.raises(ValueError) as err:
        Simulation(small_engine_config(road=TWO_KM, measure_s=0.0), seed=1, fleet=fleet)
    for error in ("measure_s must be > 0", "fleet pos_m must be in [0, length_m)",
                  "fleet lane must hold integers in [0, 6)", "fleet is_lte must be bool"):
        assert error in str(err.value)


@pytest.mark.parametrize("period_ms", [20.0, 50.0, 100.0])
@pytest.mark.parametrize("mix", [0.0, 0.5])
def test_sps_window_follows_the_beacon_period(period_ms, mix):
    # The selection window is one beacon period: every LTE CAM finds its
    # reservation within the period, and each node's frames start on its
    # offset modulo the period.
    cfg = small_engine_config(itsg5_fraction=mix,
                              traffic=TrafficConfig(base_period_ms=period_ms))
    assert cfg.validate() == []
    sim = Simulation(cfg, seed=1)
    assert sim.sps.period * TTI_US == round(period_ms * 1000)
    start_tx, off_offset = sim.start_tx, []

    def spy(node, cam, t_us):
        if (sim.is_lte[node]
                and (t_us // TTI_US) % sim.sps.period != sim.sps.offset[sim.lte_col[node]]):
            off_offset.append((node, t_us))
        start_tx(node, cam, t_us)

    sim.start_tx = spy
    c = sim.run().counters
    assert c["tx_ltev2x"] > 0 and off_offset == []
    assert c["cams_dropped"] == 0


def test_beacon_period_must_be_whole_ttis_dividing_the_sensing_window():
    for period_ms, error in (
            (100.5, "base_period_ms must be a whole number of 1 ms TTIs"),
            (300.0, "base_period_ms must divide sensing_window_ttis")):
        cfg = small_engine_config(traffic=TrafficConfig(base_period_ms=period_ms))
        assert cfg.validate() == [error]
        with pytest.raises(ValueError, match=error):
            Simulation(cfg, seed=1)
    # An invalid period is reported by the traffic checks alone.
    cfg = small_engine_config(traffic=TrafficConfig(base_period_ms=0.0))
    assert cfg.validate() == ["base_period_ms must be > 0",
                              "itsg5_jitter_ms must be in [0, base_period_ms)"]


def test_sensing_window_must_hold_whole_selection_windows():
    for ttis in (50, 1050):
        cfg = small_engine_config(sps=SpsConfig(sensing_window_ttis=ttis))
        assert cfg.validate() == ["base_period_ms must divide sensing_window_ttis"]
    assert small_engine_config(sps=SpsConfig(sensing_window_ttis=500)).validate() == []


def test_itsg5_airtime_must_fit_the_shortest_period():
    # At 125 kb/s each 8 us symbol carries one bit: 1481 bytes take exactly
    # the 95 ms that base_period_ms - itsg5_jitter_ms leaves, 1480 bytes 64 us less.
    csma = CsmaConfig(mcs_data_rate_bps=125e3)
    assert airtime_us(1481, csma) == 95_000
    cfg = small_engine_config(csma=csma, traffic=TrafficConfig(payload_bytes=1481))
    assert cfg.validate() == [
        "ITS-G5 airtime must be shorter than base_period_ms - itsg5_jitter_ms"]
    cfg.traffic.payload_bytes = 1480
    assert cfg.validate() == []
    # A wider jitter lets a station draw a 94.9 ms period.
    cfg.traffic.itsg5_jitter_ms = 5.1
    assert cfg.validate()


def test_same_seed_same_digest():
    cfg = small_engine_config(measure_s=1.0)
    a = eng.run(cfg, seed=3)
    b = eng.run(cfg, seed=3)
    assert a.digest() == b.digest()
    assert a.counters == b.counters


def test_extra_counter_leaves_the_digest_alone(mixed_log):
    extra = eng.RunLog(mixed_log.histogram, {**mixed_log.counters, "new_count": 5},
                       mixed_log.n_vehicles)
    assert extra.digest() == mixed_log.digest()


def test_different_seed_different_digest():
    cfg = small_engine_config(measure_s=1.0)
    assert eng.run(cfg, seed=3).digest() != eng.run(cfg, seed=4).digest()


def test_zero_vehicle_run_is_empty():
    cfg = small_engine_config(road=RoadConfig(length_m=100.0, density_veh_per_km=1.0))
    log = eng.run(cfg, seed=1)
    assert log.n_vehicles == 0
    assert all(v == 0 for v in log.counters.values())
    assert log.histogram.opportunities.sum() == 0


def test_counted_transmissions_match_beacon_rate(mixed_log):
    # 20 vehicles at 10 Hz over 2 s: one beacon per vehicle per 100 ms.
    expected = 20 * 20
    assert abs(mixed_log.counters["counted_tx"] - expected) <= 0.1 * expected


def test_warmup_transmissions_are_not_counted(mixed_log):
    total_tx = mixed_log.counters["tx_itsg5"] + mixed_log.counters["tx_ltev2x"]
    assert 0 < mixed_log.counters["counted_tx"] < total_tx


def test_histogram_totals_match_counters(mixed_log):
    h = mixed_log.histogram
    assert h.opportunities.sum() == mixed_log.counters["rx_opportunities"]
    assert h.successes.sum() == mixed_log.counters["rx_success"]
    assert (h.successes <= h.opportunities).all()
    assert mixed_log.n_vehicles == 20


def test_run_scores_its_last_part_filled_batch(monkeypatch):
    # The last mobility update, at 2.4 s, leaves 0.1 s of frames buffered.
    cfg = small_engine_config(mobility_update_ms=300)
    sim = Simulation(cfg, seed=7)
    sizes = []
    score = sim._score
    sim._score = lambda: (sizes.append(len(sim._unscored)), score())
    log = sim.run()
    assert 0 < sizes[-1] < eng.SCORE_BATCH and sim._unscored == []
    h = log.histogram
    assert h.opportunities.sum() == log.counters["rx_opportunities"] > 0
    assert h.successes.sum() == log.counters["rx_success"]
    monkeypatch.setattr(eng, "SCORE_BATCH", 1)
    assert eng.run(cfg, seed=7).counters == log.counters


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(0, 300), min_size=1, max_size=12))
def test_split_uniform_draws_equal_one_draw(seed, sizes):
    # _score draws a whole batch at once; this equals the draws frame by frame
    # only while numpy's Generator.random keeps this property.
    parts = np.random.default_rng(seed)
    split = np.concatenate([parts.random(k) for k in sizes])
    whole = np.random.default_rng(seed).random(sum(sizes))
    assert np.array_equal(split, whole)
    assert parts.random() == np.random.default_rng(seed).random(sum(sizes) + 1)[-1]


def test_cam_conservation():
    sim = Simulation(small_engine_config(), seed=11)
    log = sim.run()
    leftover = sum(m.pending is not None for m in sim.macs if m is not None)
    leftover += len(sim.lte_pending)
    c = log.counters
    assert c["cams_generated"] == (c["tx_itsg5"] + c["tx_ltev2x"]
                                   + c["cams_dropped"] + leftover)


@settings(max_examples=40)
@given(length_m=st.floats(200.0, 500.0), itsg5_fraction=st.floats(0.0, 1.0),
       mode=st.sampled_from(TrafficMode), per_packet_jitter=st.booleans(),
       period_ms=st.sampled_from([20.0, 50.0, 100.0]),
       preamble=st.booleans(), lte_counts_g5=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_accounting_identities_hold_for_any_valid_config(
        length_m, itsg5_fraction, mode, per_packet_jitter, period_ms, preamble,
        lte_counts_g5, seed):
    cfg = small_engine_config(
        road=RoadConfig(length_m=length_m),
        itsg5_fraction=itsg5_fraction,
        traffic=TrafficConfig(mode=mode, per_packet_jitter=per_packet_jitter,
                              base_period_ms=period_ms),
        csma=CsmaConfig(preamble_threshold_dbm=-95.0 if preamble else None),
        lte_rx_counts_itsg5_interference=lte_counts_g5,
        warm_up_s=0.2, measure_s=0.5)
    assert cfg.validate() == []
    sim = Simulation(cfg, seed=seed)
    # The replay also checks the node -> LTE column map wherever the mix
    # leaves the LTE ids scattered.
    log = TxLog(sim)
    check_accounting(sim, sim.run())
    assert log.mismatches() == []


def test_mixed_run_populates_reservations():
    sim = Simulation(small_engine_config(), seed=11)
    sim.run()
    resv = sim.sps.resv_tti
    assert (resv >= 0).any()
    # Only LTE nodes decode control messages, and only LTE nodes announce:
    # the table has one row and one column per LTE station.
    m = int(sim.is_lte.sum())
    assert 0 < m < sim.n and resv.shape == (m, m)


def test_second_start_of_an_active_transmitter_is_an_error():
    cfg = small_engine_config(itsg5_fraction=1.0)
    sim = Simulation(cfg, seed=1, fleet=two_vehicles())
    sim.start_tx(0, 0, 0)
    with pytest.raises(RuntimeError, match="already transmitting"):
        sim.start_tx(0, 0, 100)


def test_event_in_the_past_is_an_error():
    sim = Simulation(small_engine_config(), seed=1)
    first_us = sim.heap[0][0]  # the earliest pending event
    sim.now = first_us + 1
    with pytest.raises(RuntimeError,
                       match=f"event at {first_us} us processed after {first_us + 1} us"):
        sim.run()


@pytest.mark.parametrize("mix", [0.0, 0.5])
def test_second_run_is_an_error_and_leaves_the_first_log_alone(mix):
    sim = Simulation(small_engine_config(itsg5_fraction=mix), seed=11)
    log = sim.run()
    digest, pending = log.digest(), len(sim.heap)
    with pytest.raises(RuntimeError, match="a Simulation runs once"):
        sim.run()
    assert log.digest() == digest
    assert sim.now == sim.end_us and len(sim.heap) == pending


def test_weak_reservation_is_not_recorded():
    # Without shadowing the pair hears each other at -99 dBm at 500 m and
    # -118 dBm at 1500 m, either side of the -110 dBm decode threshold.
    road = RoadConfig(length_m=20_000.0, density_veh_per_km=1.0)
    cfg = small_engine_config(road=road, itsg5_fraction=0.0, shadowing=NO_SHADOW,
                              warm_up_s=0.0, measure_s=1.0)
    for d_m, recorded in ((500.0, True), (1500.0, False)):
        sim = Simulation(cfg, seed=5,
                         fleet=two_vehicles(d_m, (True, True)))
        sim.run()
        assert sim.counters["tx_ltev2x"] > 0
        assert (sim.sps.resv_tti[[0, 1], [1, 0]] >= 0).all() == recorded


def test_geometry_refresh_holds_few_matrices_and_sps_state_has_lte_width():
    # The 50/50 mix at twice the default density. A refresh builds the next
    # shadowing, distance and rx-power matrices in place: it allocated 7.1
    # n x n float64 buffers at its peak when each step made a fresh array.
    cfg = EngineConfig(road=RoadConfig(density_veh_per_km=123.0), itsg5_fraction=0.5)
    sim = Simulation(cfg, seed=1)
    n, m = sim.n, sim.lte_ids.size
    assert n == 246 and m == 123
    tracemalloc.start()
    try:
        sim._on_mobility(cfg.mobility_update_ms * 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * 8
    # Only LTE stations sense or reserve, so their state has one column each.
    h, sps = sim.history, sim.sps
    assert h.energy_mw_us.shape == h.blind.shape == (cfg.sps.sensing_window_ttis, m)
    assert sps.resv_tti.shape == (m, m)
    assert sps.offset.shape == sps.counter.shape == (m,)


def test_refresh_frees_the_previous_epoch_under_a_frame_on_air():
    # A frame owns copies of its rows, so the epoch it started in is freed at
    # the next refresh even while the frame is on air.
    sim = Simulation(small_engine_config(itsg5_fraction=0.5), seed=1)
    g5 = int(np.flatnonzero(~sim.is_lte)[0])
    sim.start_tx(g5, 0, 0)
    rec = sim.active[g5]
    assert rec.rx_mw.tolist() == sim.rx_mw[g5].tolist()
    assert rec.dist_m.tolist() == sim.dist[g5].tolist()
    assert rec.rx_lte_mw.tolist() == sim.rx_mw[g5, sim.lte_ids].tolist()
    for row in (rec.rx_mw, rec.rx_lte_mw, rec.dist_m):
        assert not np.shares_memory(row, sim.rx_mw) and not np.shares_memory(row, sim.dist)
    old = weakref.ref(sim.rx_mw), weakref.ref(sim.dist)
    sim._on_mobility(sim.cfg.mobility_update_ms * 1000)
    assert g5 in sim.active and old[0]() is None and old[1]() is None


def test_half_duplex_receiver_records_no_reservation():
    # Both nodes transmit in every TTI, so neither ever decodes the other.
    cfg = small_engine_config(itsg5_fraction=0.0, shadowing=NO_SHADOW,
                              measure_s=0.5)
    sim = ContinuousLte(cfg, seed=5, fleet=two_vehicles(50.0, (True, True)))
    sim.run()
    assert sim.counters["tx_ltev2x"] > 0
    assert (sim.sps.resv_tti == -1).all()


def test_node_never_records_its_own_reservation():
    # rx_mw has a zero diagonal, so a transmitter never passes the decode filter.
    cfg = small_engine_config(itsg5_fraction=0.0, shadowing=NO_SHADOW, measure_s=1.0)
    sim = Simulation(cfg, seed=5, fleet=two_vehicles(100.0, (True, True)))
    sim.run()
    resv = sim.sps.resv_tti
    assert resv[0, 1] >= 0 and resv[1, 0] >= 0
    assert resv[0, 0] == -1 and resv[1, 1] == -1


def test_finished_run_is_freed_without_the_cycle_collector():
    # Each CsmaMac refers back to its Simulation; run() breaks that cycle, so
    # a finished run is freed as soon as its last reference goes.
    sim = Simulation(small_engine_config(itsg5_fraction=0.5), seed=1)
    sim.run()
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_mobility_moves_vehicles_and_updates_shadowing():
    sim = Simulation(small_engine_config(measure_s=1.0), seed=2)
    p0 = sim.pos.copy()
    s0 = sim.shadow.values_db.copy()
    sim.run()
    assert not np.allclose(sim.pos, p0)
    assert not np.allclose(sim.shadow.values_db, s0)


def test_lanes_below_lanes_per_direction_drive_forward():
    # The engine derives each node's direction from its lane, as spawn does.
    fleet = Fleet(np.array([100.0, 100.0]), np.array([2, 3]), np.array([False, False]))
    sim = Simulation(small_engine_config(), seed=1, fleet=fleet)
    sim._on_mobility(100_000)
    step = sim.cfg.road.speed_mps * 0.1
    assert sim.pos.tolist() == pytest.approx([100.0 + step, 100.0 - step])


def test_isolated_pair_with_margin_decodes_every_packet():
    # 100 m, no shadowing, no interferers: SINR is 27 dB on every reception.
    cfg = small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW)
    log = Simulation(cfg, seed=5, fleet=two_vehicles()).run()
    c = log.counters
    assert c["rx_opportunities"] > 0
    assert c["rx_success"] == c["rx_opportunities"]
    # Exactly 100 m falls in the [100, 110) bin.
    h = log.histogram
    assert h.opportunities[0, 10] == c["rx_opportunities"]
    assert h.opportunities.sum() == h.opportunities[0, 10]


def test_transmitter_is_never_its_own_receiver():
    # An infinite relevance margin (no relevance filter) is a valid config; its
    # 0 mW relevance floor admits the transmitter's own zero rx_mw entry too.
    cfg = small_engine_config(road=RoadConfig(length_m=20_000.0), itsg5_fraction=1.0,
                              relevance_margin_db=float("inf"))
    assert cfg.validate() == []
    log = Simulation(cfg, seed=5, fleet=two_vehicles(d_m=1000.0)).run()
    assert log.counters["counted_tx"] > 0
    assert log.counters["rx_opportunities"] == 0


def test_below_noise_link_yields_no_opportunities():
    road = RoadConfig(length_m=20_000.0, density_veh_per_km=1.0)
    cfg = small_engine_config(road=road, itsg5_fraction=1.0,
                              shadowing=NO_SHADOW, max_distance_m=20_000.0,
                              bin_width_m=100.0)
    log = Simulation(cfg, seed=5, fleet=two_vehicles(d_m=10_000.0)).run()
    assert log.counters["counted_tx"] > 0
    assert log.counters["rx_opportunities"] == 0


def test_continuous_lte_pair_always_half_duplex():
    cfg = small_engine_config(itsg5_fraction=0.0, shadowing=NO_SHADOW,
                              measure_s=1.0)
    log = ContinuousLte(cfg, seed=5,
                        fleet=two_vehicles(50.0, (True, True))).run()
    c = log.counters
    assert c["tx_ltev2x"] >= 2 * 1000
    assert c["rx_opportunities"] > 0
    assert c["rx_halfduplex"] == c["rx_opportunities"]
    assert c["rx_success"] == 0


def test_concurrent_power_sums_and_two_tier_sensing():
    fleet = lane_zero([0.0, 200.0, 100.0])
    cfg = small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW, warm_up_s=0.0)
    sim = Simulation(cfg, seed=1, fleet=fleet)
    assert not any(sim.is_busy(i) for i in range(sim.n))
    sim.start_tx(0, 0, 0)
    sim.start_tx(1, 0, 0)
    # Middle node hears both 100 m neighbours at about -71 dBm each.
    per_link = rx_power_mw(path_loss_db(100.0, cfg.link), 0.0, cfg.link)
    power_mw, preambles = air_power(sim)
    assert power_mw[2] == pytest.approx(2 * per_link, rel=1e-9)
    total_dbm = 10 * np.log10(power_mw[2])
    assert total_dbm == pytest.approx(-68.05, abs=0.01)
    # Below the -65 dBm energy gate, yet busy through preamble detection.
    assert total_dbm < cfg.csma.cca_threshold_dbm
    assert preambles[2] == 2
    assert sim.is_busy(2)
    # Concurrent transmitters are mutually half-duplex; the middle node hears both.
    end_us = sim.active[0].end_us
    sim._end_tx(sim.active[0], end_us)
    sim._end_tx(sim.active[1], end_us)
    sim._score()
    c = sim.counters
    assert c["rx_opportunities"] == 4 and c["rx_halfduplex"] == 2


def test_frame_ending_as_another_starts_leaves_its_sender_listening():
    # Busy intervals are half-open: node 1's frame is gone at its end instant,
    # so node 1 hears the frame node 0 starts then.
    cfg = small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW, warm_up_s=0.0)
    sim = Simulation(cfg, seed=1, fleet=two_vehicles())
    sim.start_tx(1, 0, 100)
    first = sim.active[1]
    sim._end_tx(first, first.end_us)
    sim.start_tx(0, 0, first.end_us)
    second = sim.active[0]
    sim._end_tx(second, second.end_us)
    sim._score()
    c = sim.counters
    assert c["rx_opportunities"] == 2 and c["rx_halfduplex"] == 0


def test_receiver_that_starts_during_the_frame_is_deaf_to_it():
    cfg = small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW, warm_up_s=0.0)
    sim = Simulation(cfg, seed=1, fleet=two_vehicles())
    sim.start_tx(0, 0, 0)
    sim.start_tx(1, 0, 100)
    first = sim.active[0]
    sim._end_tx(first, first.end_us)
    sim._score()
    c = sim.counters
    assert c["rx_opportunities"] == 1 and c["rx_halfduplex"] == 1 and c["rx_success"] == 0


def test_two_itsg5_frames_inside_one_lte_frame_leave_the_sender_deaf():
    # At 12 Mb/s an ITS-G5 frame takes 280 us, so node 1 sends two frames
    # inside node 0's 929 us sidelink frame, and both end before it does.
    cfg = small_engine_config(itsg5_fraction=0.5, shadowing=NO_SHADOW, warm_up_s=0.0,
                              csma=CsmaConfig(mcs_data_rate_bps=12e6))
    sim = Simulation(cfg, seed=1, fleet=two_vehicles(100.0, (True, False)))
    sim.start_tx(0, 0, 0)
    lte = sim.active[0]
    for start_us in (100, 500):
        sim.start_tx(1, 0, start_us)
        sim._end_tx(sim.active[1], start_us + sim.g5_airtime_us)
    assert sim.tx_end_us[1] == 780 < lte.end_us
    sim._score()
    c = sim.counters
    assert c["rx_opportunities"] == c["rx_halfduplex"] == 2  # node 0 is on air
    sim._end_tx(lte, lte.end_us)
    sim._score()
    assert c["rx_opportunities"] == c["rx_halfduplex"] == 3


def test_energy_only_sensing_ignores_sub_threshold_preambles():
    fleet = two_vehicles()
    cfg = small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW)
    cfg.csma.preamble_threshold_dbm = None
    sim = Simulation(cfg, seed=1, fleet=fleet)
    sim.start_tx(0, 0, 0)
    assert not sim.is_busy(1)  # -71 dBm is below the energy gate
    assert air_power(sim)[1][1] == 0


@pytest.mark.parametrize("overrides", [
    dict(itsg5_fraction=1.0),
    dict(itsg5_fraction=0.5),
    dict(itsg5_fraction=0.5, csma=CsmaConfig(preamble_threshold_dbm=None)),
], ids=["itsg5_only", "half", "energy_only_cca"])
def test_filtered_cca_dispatch_matches_every_mac_hearing_every_edge(overrides):
    # Twice the usual density: several deferring MACs then share one idle
    # edge, so dispatching them out of node order would move backoff draws.
    cfg = small_engine_config(road=RoadConfig(length_m=500.0, density_veh_per_km=80.0),
                              **overrides)
    log = Simulation(cfg, seed=5).run()
    assert log.counters["tx_itsg5"] > 0
    assert log.digest() == AllCcaEdges(cfg, seed=5).run().digest()


def test_listener_set_and_cca_reads_follow_the_run(monkeypatch):
    sim = Simulation(small_engine_config(itsg5_fraction=0.5), seed=5)
    g5, lte = np.flatnonzero(~sim.is_lte), sim.lte_ids
    seen, busy_reads = set(), 0

    def checked_heappop(heap):
        # Called before each event, so it sees the state after the last one.
        nonlocal busy_reads
        phases = {i: sim.macs[i].phase for i in g5.tolist()}
        seen.update(phases.values())
        assert sim.listening == {i for i, p in phases.items()
                                 if p in (Phase.AIFS, Phase.COUNT, Phase.DEFER)}
        # Every node's CCA read equals the full vector summed by the oracle.
        reads = [sim.is_busy(i) for i in range(sim.n)]
        assert reads == cca_vector(sim).tolist()
        busy_reads += sum(reads)
        return heapq.heappop(heap)

    monkeypatch.setattr(eng, "heapq", SimpleNamespace(heappush=heapq.heappush,
                                                       heappop=checked_heappop))
    sim.run()
    assert lte.size > 0 and seen == set(Phase) and busy_reads > 0


def test_frame_start_reads_each_listening_node_once():
    # Four ITS-G5 MACs begin to listen on an idle channel, then node 0's frame
    # starts. Each listener's CCA is read once, in node order, and compared
    # with the read it made as it began to listen.
    fleet = lane_zero([0.0, 100.0, 200.0, 300.0, 400.0])
    sim = Simulation(small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW),
                     seed=1, fleet=fleet)
    listeners = [1, 2, 3, 4]
    for i in listeners:
        sim.macs[i].on_packet_ready(0, 0)
    assert sim.listening == set(listeners)
    reads, is_busy = [], sim.is_busy

    def counted(node):
        reads.append(node)
        return is_busy(node)

    sim.is_busy = counted
    sim.start_tx(0, 0, 0)
    assert reads == listeners
    # The MACs the frame turned busy defer; the others still wait out AIFS.
    busy = cca_vector(sim)
    assert busy[1] and [sim.macs[i].phase for i in listeners] == [
        Phase.DEFER if busy[i] else Phase.AIFS for i in listeners]


def test_all_lte_run_reads_no_cca(monkeypatch):
    def no_cca(sim, node):
        raise AssertionError(f"CCA read at node {node} in a run with no CSMA MAC")

    monkeypatch.setattr(Simulation, "is_busy", no_cca)
    log = Simulation(small_engine_config(itsg5_fraction=0.0), seed=5).run()
    assert log.counters["tx_ltev2x"] > 0


def test_all_itsg5_run_keeps_no_sensing_history():
    sim = Simulation(small_engine_config(itsg5_fraction=1.0), seed=5)
    assert sim.history is None and sim.sps is None
    log = sim.run()
    assert log.counters["tx_itsg5"] > 0


def test_sensed_rssi_averages_burst_over_occupied_symbols():
    # One 512 us burst at -71 dBm inside a TTI: the sidelink RSSI average is
    # power * 512/929 plus the noise floor.
    fleet = two_vehicles(100.0, (False, True))
    cfg = small_engine_config(itsg5_fraction=0.5, shadowing=NO_SHADOW,
                              warm_up_s=0.0, measure_s=2.0)
    sim = Simulation(cfg, seed=9, fleet=fleet)
    _, starts = record_cca(sim)
    sim.run()
    rx_mw = rx_power_mw(path_loss_db(100.0, cfg.link), 0.0, cfg.link)
    expected = rx_mw * 512.0 / OCCUPIED_US + sim.noise_mw
    checked = 0
    col = sim.lte_col[1]  # the receiver's column in the sensing history
    assert col == 0
    # The window a selection would read in the open TTI: the closed TTIs
    # still in the ring, oldest first.
    now_tti = sim.history.last_finalized_tti + 1
    first = now_tti + 1 - sim.history.window
    rssi, blind = sim.history.read_window(col, now_tti)
    for t, node in starts:
        tti, off = divmod(t, TTI_US)
        if off + 512 > OCCUPIED_US or not first <= tti < now_tti:
            continue
        if blind[tti - first]:
            continue  # receiver transmitted itself in this TTI
        got = rssi[tti - first]
        assert 10 * np.log10(got) == pytest.approx(
            10 * np.log10(expected), abs=0.05)
        checked += 1
    assert checked > 0


def test_selection_sees_every_ended_tti_and_no_open_one():
    # TTIs close lazily as time advances; each SPS selection must still read
    # a history finalized exactly up to the TTI before its own.
    sim = Simulation(small_engine_config(itsg5_fraction=0.5), seed=4)
    seen, select = [], sim.sps.select_resource

    def spy(node, now_tti):
        seen.append((now_tti, sim.history.last_finalized_tti))
        return select(node, now_tti)

    sim.sps.select_resource = spy
    sim.run()
    assert len(seen) > sim.lte_ids.size
    assert all(last == now_tti - 1 for now_tti, last in seen)


def test_blind_rows_mark_exactly_the_ttis_of_each_nodes_sidelink_frames():
    # An LTE station is blind in a TTI exactly when it sent an LTE frame in
    # it; ITS-G5 nodes have no column. The run outlasts the window, so every
    # row has been rewritten; the ring keeps all but one row for closed TTIs.
    sim = Simulation(small_engine_config(itsg5_fraction=0.5, measure_s=1.0), seed=4)
    sent, start_tx = set(), sim.start_tx

    def spy(node, cam, t_us):
        if sim.is_lte[node]:
            sent.add((t_us // TTI_US, node))
        start_tx(node, cam, t_us)

    sim.start_tx = spy
    sim.run()
    h = sim.history
    ttis = np.arange(h.last_finalized_tti + 2 - h.window, h.last_finalized_tti + 1)
    assert ttis[0] > 0
    expected = np.array([[(tti, j) in sent for j in sim.lte_ids.tolist()]
                         for tti in ttis.tolist()])
    np.testing.assert_array_equal(h.blind[ttis % h.window], expected)
    assert expected.any() and sim.counters["tx_itsg5"] > 0


def test_noise_only_ttis_sense_the_noise_floor():
    fleet = two_vehicles(100.0, (True, True))
    cfg = small_engine_config(itsg5_fraction=0.0, shadowing=NO_SHADOW,
                              warm_up_s=0.0, measure_s=1.0)
    sim = Simulation(cfg, seed=3, fleet=fleet)
    sim.run()
    h = sim.history
    last = h.last_finalized_tti
    rssi, blind = h.read_window(0, last + 1)
    # Index i holds TTI last + 2 - window + i: keep the closed TTIs from 0 on.
    closed = slice(max(h.window - 2 - last, 0), -1)
    vals = rssi[closed][~blind[closed]]
    # Most TTIs carry no transmission at all: the minimum is the pure floor.
    assert vals.min() == pytest.approx(sim.noise_mw, rel=1e-9)
    assert 10 * np.log10(vals.min()) == pytest.approx(-98.0, abs=1e-6)


def test_interference_energy_counts_only_the_overlap():
    fleet = lane_zero([0.0, 200.0, 100.0])
    cfg = small_engine_config(itsg5_fraction=1.0, shadowing=NO_SHADOW)
    sim = Simulation(cfg, seed=1, fleet=fleet)
    sim.start_tx(0, 0, 0)
    sim.start_tx(1, 0, 256)
    first, second = sim.active[0], sim.active[1]
    sim._end_tx(first, 512)
    # Each 512 us frame overlapped the other for 256 us: fraction one half.
    assert first.interf_mw_us[2] == pytest.approx(second.rx_mw[2] * 256, rel=1e-12)
    assert second.interf_mw_us[2] == pytest.approx(first.rx_mw[2] * 256, rel=1e-12)
    # A frame starting at the instant another ends overlaps it for zero time.
    sim.start_tx(0, 0, 768)
    third = sim.active[0]
    sim._end_tx(second, 768)
    assert not third.interf_mw_us.any()
    assert second.interf_mw_us[2] == pytest.approx(first.rx_mw[2] * 256, rel=1e-12)
