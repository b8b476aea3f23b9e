"""CAM generation: phases, per-station periods, standard vs constrained mode."""

import numpy as np
import pytest
from scipy import stats

from coexsim.scenario import Tech
from coexsim.traffic import (
    Cam,
    CamSource,
    TrafficConfig,
    TrafficMode,
    first_generation_us,
    station_period_us,
)

STD = TrafficConfig()
CON = TrafficConfig(mode=TrafficMode.CONSTRAINED)


def test_config_validation():
    assert STD.validate() == []
    assert TrafficConfig(payload_bytes=0).validate()
    assert TrafficConfig(base_period_ms=0.0).validate()
    assert TrafficConfig(itsg5_jitter_ms=100.0).validate()
    assert TrafficConfig(itsg5_jitter_ms=-1.0).validate()


def test_mode_values():
    assert TrafficMode("standard") is TrafficMode.STANDARD
    assert TrafficMode("constrained") is TrafficMode.CONSTRAINED


def test_first_generation_phase_distribution(rng):
    draws = np.array([first_generation_us(STD, rng) for _ in range(10_000)])
    assert ((draws >= 0) & (draws < 100_000)).all()
    assert draws.mean() == pytest.approx(50_000, abs=1000)


def test_station_period_constrained_is_exact(rng):
    for tech in (Tech.ITSG5, Tech.LTEV2X):
        assert station_period_us(tech, CON, rng) == 100_000


def test_station_period_lte_never_jitters(rng):
    assert all(station_period_us(Tech.LTEV2X, STD, rng) == 100_000
               for _ in range(100))


def test_station_period_itsg5_jitter_range(rng):
    periods = np.array([station_period_us(Tech.ITSG5, STD, rng)
                        for _ in range(2000)])
    assert ((periods >= 95_000) & (periods <= 105_000)).all()
    assert periods.std() > 0


def test_station_period_itsg5_jitter_uniformity(rng):
    periods = np.array([station_period_us(Tech.ITSG5, STD, rng)
                        for _ in range(2000)])
    # KS against U(95 ms, 105 ms) at the 5% level (fixed seed).
    _, p = stats.kstest(periods, stats.uniform(95_000, 10_000).cdf)
    assert p > 0.05


def test_cam_source_constant_period(rng):
    src = CamSource(Tech.ITSG5, STD, rng)
    t = src.next_time_us
    gaps = []
    for _ in range(5):
        src.generate(t)
        gaps.append(src.next_time_us - t)
        t = src.next_time_us
    assert len(set(gaps)) == 1
    assert gaps[0] == src.period_us


def test_cam_source_sequence_and_timestamps(rng):
    src = CamSource(Tech.LTEV2X, CON, rng)
    t = src.next_time_us
    for i in range(4):
        cam = src.generate(t)
        assert cam.seq == i
        assert cam.t_gen_us == t
        t = src.next_time_us
    assert t == src.next_time_us


def test_cam_source_constrained_gap_is_base_period(rng):
    src = CamSource(Tech.ITSG5, CON, rng)
    t = src.next_time_us
    src.generate(t)
    assert src.next_time_us - t == 100_000


def test_cam_source_per_packet_jitter_redraws(rng):
    cfg = TrafficConfig(per_packet_jitter=True)
    src = CamSource(Tech.ITSG5, cfg, rng)
    t = src.next_time_us
    gaps = set()
    for _ in range(20):
        src.generate(t)
        gaps.add(src.next_time_us - t)
        t = src.next_time_us
    assert len(gaps) > 1
    assert all(95_000 <= g <= 105_000 for g in gaps)


def test_cam_source_count_over_interval(rng):
    # Arrivals in [0, T) for a periodic source: floor(T/p) or one more,
    # depending on the initial phase.
    for _ in range(50):
        src = CamSource(Tech.ITSG5, STD, rng)
        horizon = 10_000_000
        count = 0
        while src.next_time_us < horizon:
            src.generate(src.next_time_us)
            count += 1
        lo = horizon // src.period_us
        assert count in (lo, lo + 1)


def test_cam_is_frozen():
    cam = Cam(0, 0)
    with pytest.raises(AttributeError):
        cam.seq = 5
