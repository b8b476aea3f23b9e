"""Sidelink SPS: sensing history, candidate ranking, counter and keep logic."""

import numpy as np
import pytest

from coexsim.engine import Simulation
from coexsim.mac_ltev2x import (
    OCCUPIED_US,
    TTI_US,
    SensingHistory,
    SpsConfig,
    SpsScheduler,
)

from conftest import small_engine_config
from oracles import SpsCounts, reference_selection

NOISE_MW = 10 ** (-98.0 / 10.0)
WINDOW_TTIS = SpsConfig().sensing_window_ttis


def flat_history(n_nodes=1) -> SensingHistory:
    # Nothing finalized: every lag falls back to the noise floor, no blindness.
    return SensingHistory(n_nodes, NOISE_MW, WINDOW_TTIS)


def make_scheduler(rng=None, cfg=None, history=None) -> SpsScheduler:
    """A scheduler over the nodes of `history`, on the 100-TTI period; the
    tests select for node 0."""
    history = history or flat_history()
    return SpsScheduler(history.blind_now.size, 100, cfg or SpsConfig(), history,
                        rng if rng is not None else np.random.default_rng(42))


def picks_over_seeds(sched, now_tti, trials=2000) -> set[int]:
    """Every TTI sched picks for node 0 at now_tti, over `trials` seeded RNGs."""
    picks = set()
    for seed in range(trials):
        sched.rng = np.random.default_rng(seed)
        picks.add(sched.select_resource(0, now_tti))
    return picks


class StubRng:
    """Deterministic stand-in: fixed counters, scripted keep draws, identity
    permutation, always the first of the best set."""

    def __init__(self, counters=(), randoms=()):
        self.counters = list(counters)
        self.randoms = list(randoms)

    def integers(self, a, b=None):
        if b is None:
            return 0
        return self.counters.pop(0)

    def permutation(self, n):
        return np.arange(n)

    def random(self):
        return self.randoms.pop(0)


def test_tti_grid_constants():
    # 1 ms TTIs whose last 71 us symbol is an unused guard.
    assert TTI_US == 1000 and TTI_US - OCCUPIED_US == 71
    # The engine starts every sidelink frame on a TTI boundary and keeps it
    # on air for the occupied symbols only.
    cfg = small_engine_config(itsg5_fraction=0.0, warm_up_s=0.0, measure_s=0.5)
    sim = Simulation(cfg, seed=1)
    ended = []
    end_tx = sim._end_tx

    def spy(rec, t_us):
        ended.append(rec)
        end_tx(rec, t_us)

    sim._end_tx = spy
    sim.run()
    assert ended
    assert all(rec.lte and rec.start_us % TTI_US == 0
               and rec.end_us - rec.start_us == OCCUPIED_US for rec in ended)


def test_sps_config_validation():
    assert SpsConfig().validate() == []
    assert SpsConfig(keep_probability=1.5).validate()
    assert SpsConfig(counter_min=0).validate()
    assert SpsConfig(counter_min=10, counter_max=5).validate()
    assert SpsConfig(sensing_window_ttis=0).validate() == [
        "sensing_window_ttis must be >= 1"]
    assert SpsConfig(best_fraction=0.0).validate()
    # An expiry below one TTI leaves every decoded reservation dead on arrival.
    assert SpsConfig(reservation_expiry_ttis=0).validate() == [
        "reservation_expiry_ttis must be >= 1"]
    assert SpsConfig(reservation_expiry_ttis=-5).validate()
    assert SpsConfig(reservation_expiry_ttis=1).validate() == []


def test_sensing_history_stores_per_tti_rows():
    h = SensingHistory(1, NOISE_MW, WINDOW_TTIS)
    for t in range(1501):
        h.finalize(t, np.array([float(t)]), np.array([t % 100 == 7]))
    vals, blind = h.lag_views(np.array([1500]), 0, n_lags=3, lag_step=100)
    assert vals.tolist() == [[1400.0, 1300.0, 1200.0]]
    assert not blind.any()
    vals, blind = h.lag_views(np.array([1507]), 0, n_lags=2, lag_step=100)
    assert blind.all()


def test_sensing_history_fallback_outside_window():
    h = SensingHistory(1, NOISE_MW, WINDOW_TTIS)
    h.finalize(0, np.array([1e-3]), np.array([True]))
    # Lag before time zero and lag beyond the last finalized TTI.
    vals, blind = h.lag_views(np.array([50, 300]), 0, n_lags=1, lag_step=100)
    assert vals[0, 0] == NOISE_MW and not blind[0, 0]
    assert vals[1, 0] == NOISE_MW and not blind[1, 0]


def test_select_resource_window_and_bookkeeping():
    sched = make_scheduler()
    counts = SpsCounts(sched)
    pool, threshold = reference_selection(sched.history, sched, 0, 250)
    chosen = sched.select_resource(0, 250)
    assert type(chosen) is int and 251 <= chosen <= 350
    assert len(pool) == 100 and pool[chosen] <= threshold
    assert sched.offset[0] == chosen % 100
    assert sched._next_occurrence(0, 250) == chosen
    assert counts.reselections == 1


def test_high_rssi_candidate_is_never_picked():
    h = SensingHistory(1, NOISE_MW, WINDOW_TTIS)
    hot = 10 ** (-60.0 / 10.0)
    for t in range(1000):
        val = hot if t % 100 == 37 else NOISE_MW
        h.finalize(t, np.array([val]), np.array([False]))
    for trial in range(100):
        sched = make_scheduler(rng=np.random.default_rng(trial), history=h)
        pool, threshold = reference_selection(h, sched, 0, 999)
        chosen = sched.select_resource(0, 999)
        assert chosen % 100 != 37
        assert pool[chosen] <= threshold < pool[1037]


def test_picks_stay_in_the_reference_best_fifth():
    # Offset k senses k + 1 times the noise floor: every candidate scores
    # differently, so the best fifth is offsets 0-19 and nothing else.
    h = SensingHistory(1, NOISE_MW, WINDOW_TTIS)
    for t in range(1000):
        h.finalize(t, np.array([NOISE_MW * (t % 100 + 1)]), np.array([False]))
    sched = make_scheduler(history=h)
    pool, threshold = reference_selection(h, sched, 0, 999)
    best = {t for t, score in pool.items() if score <= threshold}
    assert best == set(range(1000, 1020))
    assert picks_over_seeds(sched, 999, trials=500) == best


def test_blind_candidate_is_excluded_from_pool():
    h = SensingHistory(1, NOISE_MW, WINDOW_TTIS)
    for t in range(1000):
        h.finalize(t, np.array([NOISE_MW]), np.array([t % 100 == 37]))
    sched = make_scheduler(cfg=SpsConfig(best_fraction=1.0), history=h)
    pool, _ = reference_selection(h, sched, 0, 999)
    assert len(pool) == 99 and 1037 not in pool
    assert picks_over_seeds(sched, 999) == set(pool)


def announce(sched, tx_node, offset, now_tti, receivers=(0,)):
    """Node tx_node's control message decoded by `receivers`."""
    sched.note_decode(tx_node, np.array(receivers), offset, now_tti)


def test_decoded_reservation_excludes_offset():
    sched = make_scheduler(cfg=SpsConfig(best_fraction=1.0), history=flat_history(6))
    announce(sched, 5, offset=7, now_tti=900)
    assert sched.resv_offset[:, 5].tolist() == [7, -1, -1, -1, -1, -1]
    pool, _ = reference_selection(sched.history, sched, 0, 999)
    assert len(pool) == 99 and 1007 not in pool
    assert picks_over_seeds(sched, 999) == set(pool)


def test_reservation_expires_after_one_second():
    sched = make_scheduler(history=flat_history(6))
    announce(sched, 5, offset=7, now_tti=900)
    assert sched.reserved_offset_mask(0, 1900).tolist() == [i == 7 for i in range(100)]
    assert not sched.reserved_offset_mask(0, 1902).any()
    # A fresh decode of the same transmitter revives the entry.
    announce(sched, 5, offset=9, now_tti=1901)
    assert sched.reserved_offset_mask(0, 1902).nonzero()[0].tolist() == [9]


def test_all_offsets_reserved_falls_back_to_full_pool():
    sched = make_scheduler(cfg=SpsConfig(best_fraction=1.0), history=flat_history(101))
    for n in range(100):
        announce(sched, n + 1, offset=n, now_tti=900)
    assert sched.reserved_offset_mask(0, 999).all()
    pool, _ = reference_selection(sched.history, sched, 0, 999)
    assert len(pool) == 100
    assert picks_over_seeds(sched, 999) == set(pool)


def test_next_occurrence_is_strictly_future():
    sched = make_scheduler()
    sched.offset[0] = 37
    assert sched._next_occurrence(0, 250) == 337
    assert sched._next_occurrence(0, 36) == 37
    assert sched._next_occurrence(0, 37) == 137
    assert sched._next_occurrence(0, 336) == 337


def test_on_generation_initial_selection_and_counter():
    sched = make_scheduler(rng=StubRng(counters=[7]))
    counts = SpsCounts(sched)
    tx = sched.on_generation(0, 0)
    assert sched.offset[0] >= 0
    assert type(tx) is int and 1 <= tx <= 100
    assert sched.counter[0] == 7
    assert counts.expiries == 0


def test_on_generation_countdown_keeps_offset():
    sched = make_scheduler(rng=StubRng(counters=[3]))
    counts = SpsCounts(sched)
    sched.on_generation(0, 0)
    offset = sched.offset[0]
    t1 = sched.on_generation(0, 100)
    t2 = sched.on_generation(0, 200)
    assert sched.counter[0] == 1
    assert type(t1) is int and type(t2) is int
    assert t1 % 100 == offset and t2 % 100 == offset
    assert 101 <= t1 <= 200 and 201 <= t2 <= 300
    assert counts.expiries == 0 and counts.reselections == 1


def test_counter_expiry_keep_and_reselect_paths():
    cfg = SpsConfig(counter_min=1, counter_max=1)  # expire every generation
    sched = make_scheduler(rng=StubRng(counters=[1, 1, 1], randoms=[0.4, 0.6]),
                           cfg=cfg)
    counts = SpsCounts(sched)
    sched.on_generation(0, 0)
    offset = sched.offset[0]
    sched.on_generation(0, 100)  # keep draw 0.4 < 0.5
    assert counts.expiries == 1
    assert counts.reselections == 1
    assert sched.offset[0] == offset
    sched.on_generation(0, 200)  # keep draw 0.6 >= 0.5: reselect
    assert counts.expiries == 2
    assert counts.reselections == 2


def test_transmissions_repeat_on_selected_offset():
    sched = make_scheduler(rng=np.random.default_rng(9),
                           cfg=SpsConfig(counter_min=15, counter_max=15))
    now = 0
    sched.on_generation(0, now)
    offset = sched.offset[0]
    for _ in range(10):
        now += 100
        tx = sched.on_generation(0, now)
        assert tx % 100 == offset
        assert now < tx <= now + 100


def test_selection_covers_most_offsets():
    seen = set()
    for trial in range(2000):
        sched = make_scheduler(rng=np.random.default_rng(trial))
        seen.add(sched.select_resource(0, 0) % 100)
    assert len(seen) >= 95


def test_mean_generations_between_reselections():
    sched = make_scheduler(rng=np.random.default_rng(5))
    counts = SpsCounts(sched)
    now = 0
    sched.on_generation(0, now)
    gens = 0
    while counts.expiries < 1000:
        now += 100
        sched.on_generation(0, now)
        gens += 1
    mean = gens / (counts.reselections - 1)
    assert mean == pytest.approx(20.0, abs=2.0)
