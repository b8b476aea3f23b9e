"""CSMA/CA state machine driven through a scripted airlink."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coexsim.mac_itsg5 import CsmaConfig, CsmaMac, Phase, airtime_us, cca_busy

CFG = CsmaConfig()


class FakeAirlink:
    """Records timer arms and transmissions; busy state is set by the test.

    Serves one MAC, node 0, and holds the set of listening nodes it keeps.
    """

    def __init__(self, busy=False):
        self.busy = busy
        self.timers = []
        self.txs = []
        self.listening = set()

    def listens(self):
        """Whether node 0 is in the listening set."""
        return 0 in self.listening

    def is_busy(self, node):
        return self.busy

    def arm_timer(self, node, due_us, token):
        self.timers.append((due_us, token))

    def start_tx(self, node, cam, now_us):
        self.txs.append((now_us, cam))


class ScriptedRng:
    def __init__(self, backoffs=()):
        self.backoffs = list(backoffs)

    def integers(self, lo, hi):
        assert self.backoffs, "unexpected backoff draw"
        v = self.backoffs.pop(0)
        assert lo <= v < hi
        return v


def test_airtime_values():
    assert airtime_us(350, CFG) == 512
    assert airtime_us(1, CFG) == 48


@given(a=st.integers(1, 2000), b=st.integers(1, 2000))
def test_airtime_monotone_in_payload(a, b):
    lo, hi = sorted([a, b])
    assert airtime_us(lo, CFG) <= airtime_us(hi, CFG)


NOISE_MW = 10 ** (-98.0 / 10.0)
CCA_MW = 10 ** (CFG.cca_threshold_dbm / 10.0)


def busy(power_dbm, preambles=0):
    """Two-tier CCA at one node hearing the given total power (dBm)."""
    out = cca_busy(np.array([10 ** (power_dbm / 10.0)]), NOISE_MW, CCA_MW,
                   np.array([preambles]))
    return bool(out[0])


def test_cca_energy_threshold():
    assert busy(-60.0)
    assert not busy(-90.0)
    # Two simultaneous -68 dBm arrivals sum to about -65.0 dBm: busy.
    total = 10 * np.log10(2 * 10 ** (-6.8))
    assert total == pytest.approx(-64.99, abs=0.01)
    assert busy(float(total))
    # -65.001 dBm of signal alone is below the gate; the -98 dBm floor lifts it over.
    assert busy(-65.001)
    assert not busy(-65.01)


def test_cca_preamble_tier_marks_busy_below_energy_gate():
    assert not busy(-90.0, preambles=0)
    assert busy(-90.0, preambles=1)
    out = cca_busy(np.array([0.0, 0.0, 1.0]), NOISE_MW, CCA_MW, np.array([0, 2, 0]))
    assert out.tolist() == [False, True, True]


def test_config_validation():
    assert CFG.validate() == []
    assert CsmaConfig(aifs_us=0).validate()
    assert CsmaConfig(slot_us=0).validate()
    assert CsmaConfig(cw_max_slots=-1).validate()
    # Preamble detection must be the more sensitive of the two tiers.
    assert CsmaConfig(preamble_threshold_dbm=-60.0).validate()
    assert CsmaConfig(preamble_threshold_dbm=None).validate() == []
    # Below one bit per 8 us symbol no frame length is defined.
    assert CsmaConfig(mcs_data_rate_bps=0.0).validate()
    assert CsmaConfig(mcs_data_rate_bps=50e3).validate()
    assert CsmaConfig(mcs_data_rate_bps=125e3).validate() == []


def test_idle_channel_transmits_after_aifs_without_backoff():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)  # any backoff draw would raise
    mac.on_packet_ready(0, 0)
    due, token = air.timers[-1]
    assert due == 110
    mac.on_timer(110, token)
    assert air.txs == [(110, 0)]
    assert mac.phase is Phase.TX


def test_busy_arrival_defers_then_counts_down_with_freeze():
    # The listening set tells the engine which MACs a CCA edge can act on:
    # those in AIFS, COUNT or DEFER, none otherwise.
    air = FakeAirlink(busy=True)
    mac = CsmaMac(0, CFG, ScriptedRng([5]), air)
    assert not air.listens()
    mac.on_packet_ready(0, 0)
    assert mac.phase is Phase.DEFER
    assert air.listens()
    assert air.timers == []

    # Busy -> idle: the backoff counter is drawn once, then AIFS restarts.
    air.busy = False
    mac.on_idle(1000)
    assert mac.backoff_slots == 5
    assert air.listens()
    due, t1 = air.timers[-1]
    assert due == 1110

    mac.on_timer(1110, t1)
    assert mac.phase is Phase.COUNT
    assert air.listens()
    due, t2 = air.timers[-1]
    assert due == 1110 + 5 * 13

    # Freeze mid-slot: only whole elapsed slots are consumed.
    air.busy = True
    mac.on_busy(1136)
    assert mac.phase is Phase.DEFER
    assert mac.backoff_slots == 3  # 26 us elapsed -> 2 whole slots
    assert air.listens()
    mac.on_timer(1175, t2)  # stale timer fires harmlessly
    assert air.txs == []

    # Resume: AIFS again, then the remaining three slots.
    air.busy = False
    mac.on_idle(2000)
    assert mac.backoff_slots == 3
    due, t3 = air.timers[-1]
    assert due == 2110
    mac.on_timer(2110, t3)
    due, t4 = air.timers[-1]
    assert due == 2110 + 3 * 13
    mac.on_timer(due, t4)
    assert air.txs == [(2149, 0)]
    assert mac.phase is Phase.TX
    assert not air.listens()
    mac.on_tx_complete(2661)
    assert mac.phase is Phase.IDLE
    assert not air.listens()


def test_busy_starting_exactly_at_window_end_does_not_cancel():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)
    mac.on_packet_ready(0, 0)
    due, token = air.timers[-1]
    air.busy = True
    mac.on_busy(due)  # onset at the exact AIFS completion instant
    assert mac.phase is Phase.AIFS
    mac.on_timer(due, token)
    assert air.txs == [(110, 0)]


def test_busy_during_aifs_restarts_sensing():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng([0]), air)
    mac.on_packet_ready(0, 0)
    _, t1 = air.timers[-1]
    air.busy = True
    mac.on_busy(50)
    assert mac.phase is Phase.DEFER
    mac.on_timer(110, t1)  # stale
    assert air.txs == []
    air.busy = False
    mac.on_idle(200)
    due, t2 = air.timers[-1]
    assert due == 310
    # Zero drawn backoff: AIFS completion transmits directly.
    mac.on_timer(310, t2)
    assert air.txs == [(310, 0)]


def test_queue_depth_one_replaces_and_counts_drop():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)
    mac.on_packet_ready(0, 0)
    mac.on_packet_ready(50, 50)
    assert mac.drops == 1
    due, token = air.timers[-1]
    mac.on_timer(due, token)
    assert air.txs == [(110, 50)]


def test_cam_generated_at_zero_is_held_while_busy():
    # A CAM is its generation time, so the one generated at 0 us is falsy;
    # it is still pending, and the next CAM replaces it as a drop.
    air = FakeAirlink(busy=True)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)
    mac.on_packet_ready(0, 0)
    assert mac.phase is Phase.DEFER
    assert mac.pending == 0 and mac.pending is not None
    assert mac.drops == 0
    mac.on_packet_ready(100_000, 100_000)
    assert mac.drops == 1
    assert mac.pending == 100_000
    assert air.txs == []


def test_packet_queued_during_tx_starts_after_completion():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)
    mac.on_packet_ready(0, 0)
    due, token = air.timers[-1]
    mac.on_timer(due, token)
    assert mac.phase is Phase.TX
    mac.on_packet_ready(300, 300)
    assert mac.drops == 0
    mac.on_tx_complete(622)
    due, token = air.timers[-1]
    assert due == 622 + 110
    mac.on_timer(due, token)
    assert air.txs[-1] == (732, 300)


def test_tx_complete_with_empty_queue_goes_idle():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)
    mac.on_packet_ready(0, 0)
    due, token = air.timers[-1]
    mac.on_timer(due, token)
    mac.on_tx_complete(622)
    assert mac.phase is Phase.IDLE
    assert len(air.timers) == 1


def test_backoff_draw_range(rng):
    for _ in range(200):
        air = FakeAirlink(busy=True)
        mac = CsmaMac(0, CFG, rng, air)
        mac.on_packet_ready(0, 0)
        air.busy = False
        mac.on_idle(1000)
        assert 0 <= mac.backoff_slots <= 15


def test_idle_notification_without_packet_is_ignored():
    air = FakeAirlink(busy=False)
    mac = CsmaMac(0, CFG, ScriptedRng(), air)
    mac.on_idle(100)
    assert mac.phase is Phase.IDLE
    assert air.timers == []
