"""CAM generation: phases, per-station periods, standard vs constrained mode."""

import numpy as np
import pytest
from scipy import stats

from coexsim.traffic import (
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
    for lte in (False, True):
        assert station_period_us(lte, CON, rng) == 100_000


def test_station_period_lte_never_jitters(rng):
    assert all(station_period_us(True, STD, rng) == 100_000
               for _ in range(100))


def test_station_period_itsg5_jitter_range(rng):
    periods = np.array([station_period_us(False, STD, rng)
                        for _ in range(2000)])
    assert ((periods >= 95_000) & (periods <= 105_000)).all()
    assert periods.std() > 0


def test_station_period_itsg5_jitter_uniformity(rng):
    periods = np.array([station_period_us(False, STD, rng)
                        for _ in range(2000)])
    # KS against U(95 ms, 105 ms) at the 5% level (fixed seed).
    _, p = stats.kstest(periods, stats.uniform(95_000, 10_000).cdf)
    assert p > 0.05


def gaps(src, node, k):
    """Gaps between the next k generations of one node, generated on time."""
    out = []
    for _ in range(k):
        t = src.next_time_us[node]
        src.generate(node, t)
        out.append(src.next_time_us[node] - t)
    return out


def test_cam_source_constant_period(rng):
    src = CamSource([False], STD, rng)
    g = gaps(src, 0, 5)
    assert len(set(g)) == 1
    assert g[0] == src.period_us[0]


def test_cam_source_sequence_and_timestamps(rng):
    # Each generation returns the node's next generation time. Every time is
    # a Python int, because heap keys must not hold numpy scalars.
    src = CamSource([True, False], CON, rng)
    assert all(type(t) is int for t in src.next_time_us + src.period_us)
    for node in (0, 1):
        t = src.next_time_us[node]
        for _ in range(4):
            nxt = src.generate(node, t)
            assert nxt == t + 100_000 == src.next_time_us[node]
            assert type(nxt) is int
            t = nxt


def test_cam_source_constrained_gap_is_base_period(rng):
    src = CamSource([False], CON, rng)
    assert gaps(src, 0, 1) == [100_000]


def test_cam_source_per_packet_jitter_redraws(rng):
    cfg = TrafficConfig(per_packet_jitter=True)
    g = set(gaps(CamSource([False], cfg, rng), 0, 20))
    assert len(g) > 1
    assert all(95_000 <= x <= 105_000 for x in g)


def test_per_packet_jitter_redraws_only_itsg5_nodes_of_a_mixed_fleet(rng):
    cfg = TrafficConfig(per_packet_jitter=True)
    is_lte = np.array([True, False, True, False])
    src = CamSource(is_lte, cfg, rng)
    for node, lte in enumerate(is_lte):
        g = gaps(src, node, 20)
        if lte:
            assert g == [100_000] * 20
        else:
            assert len(set(g)) > 1
            assert all(95_000 <= x <= 105_000 for x in g)


def test_cam_source_count_over_interval(rng):
    # Arrivals in [0, T) for a periodic source: floor(T/p) or one more,
    # depending on the initial phase.
    src = CamSource([False] * 50, STD, rng)
    horizon = 10_000_000
    for node in range(50):
        count = 0
        while src.next_time_us[node] < horizon:
            src.generate(node, src.next_time_us[node])
            count += 1
        lo = horizon // src.period_us[node]
        assert count in (lo, lo + 1)
