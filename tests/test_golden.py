"""Pinned RunLog digests: any change to what a seeded run produces fails here.

A refactor must leave these values alone. A change that is meant to alter
results updates them and says why.
"""

from dataclasses import replace

import pytest

from coexsim import engine as eng
from coexsim.mac_itsg5 import CsmaConfig
from coexsim.traffic import TrafficMode

from conftest import small_engine_config
from oracles import ContinuousLte, TxLog, record_cca, record_selections

SEED = 2026

GOLDEN = {
    (TrafficMode.STANDARD, 1.0):
        "57a785be23348f48b2d546e0daa0b0d0fec29478f373ef87e943f9115e9d751c",
    (TrafficMode.STANDARD, 0.5):
        "3c3f624557f268c8f9fcdd771cf045ca18c8cf6ce331cac0391da2b545711986",
    (TrafficMode.STANDARD, 0.0):
        "a037c0676e042bd9f1c66f15d997a87f732a1a3b20046d8c28c0ca2906d82ed4",
    (TrafficMode.CONSTRAINED, 0.5):
        "f1ec67a198bdd1c955591c53c795ded5e3c6f67e2abe7e2bfa289c6eb50127aa",
}


# 50/50 runs down the branches the pinned mixes leave out: sidelink decoding
# blind to ITS-G5 energy, CSMA without preamble detection, and saturated LTE.
BRANCHES = {
    "lte_ignores_itsg5":
        "5c2690b285dd71f0915eec57f65ed5f8184db9e657b40eacb268b5a986b57375",
    "energy_only_cca":
        "bc0e4086b9e5dee65cd7b11caa86d0e7e38a116d84e289d9bed63ebe2a6f83c3",
    "continuous_lte":
        "20bb547ecc4774afaa45a02d0f74864156ee6ee61ec315961e0619f5c6937e42",
}


def _branch_sim(name):
    if name == "lte_ignores_itsg5":
        cfg = small_engine_config(lte_rx_counts_itsg5_interference=False)
    elif name == "energy_only_cca":
        cfg = small_engine_config(csma=CsmaConfig(preamble_threshold_dbm=None))
    else:
        return ContinuousLte(small_engine_config(), seed=SEED)
    return eng.Simulation(cfg, seed=SEED)


@pytest.mark.parametrize("mode,mix", list(GOLDEN), ids=lambda v: str(getattr(v, "value", v)))
def test_pinned_digest(mode, mix):
    base = small_engine_config(itsg5_fraction=mix)
    cfg = replace(base, traffic=replace(base.traffic, mode=mode))
    assert eng.run(cfg, seed=SEED).digest() == GOLDEN[(mode, mix)]


@pytest.mark.parametrize("name", list(BRANCHES))
def test_pinned_branch_digest(name):
    assert _branch_sim(name).run().digest() == BRANCHES[name]


def test_instruments_leave_the_digest_alone():
    # Measuring must not change results: the test-side recorders only wrap
    # methods of one instance, so the 50/50 run keeps its pinned digest.
    sim = eng.Simulation(small_engine_config(itsg5_fraction=0.5), seed=SEED)
    edges, starts = record_cca(sim)
    selections = record_selections(sim)
    assert sim.run().digest() == GOLDEN[(TrafficMode.STANDARD, 0.5)]
    assert starts and any(edges.values()) and selections


@pytest.mark.parametrize("batch", [1, 10**9])
@pytest.mark.parametrize("mix", [0.5, 0.0])
def test_score_batch_size_leaves_the_digest_alone(monkeypatch, mix, batch):
    # One frame per batch, and batches cut only by mobility updates and the run's end.
    monkeypatch.setattr(eng, "SCORE_BATCH", batch)
    log = eng.run(small_engine_config(itsg5_fraction=mix), seed=SEED)
    assert log.digest() == GOLDEN[(TrafficMode.STANDARD, mix)]


@pytest.mark.parametrize("overrides, digest", [
    ({}, GOLDEN[(TrafficMode.STANDARD, 0.5)]),
    (dict(lte_rx_counts_itsg5_interference=False), BRANCHES["lte_ignores_itsg5"]),
    (dict(max_distance_m=250.0, bin_width_m=25.0), None),
], ids=["golden", "lte_ignores_itsg5", "short_range"])
def test_every_scored_reception_matches_an_independent_replay(overrides, digest):
    # The 50/50 pinned run, its branch with sidelink decoding blind to ITS-G5
    # energy, and a range shorter than the road, so that the distance cut
    # drops receivers: every scored pair's receiver set, half-duplex flag,
    # bin and interference energy agree with TxLog's plain-Python replay,
    # every SPS selection reads the sensing window the replay restates from
    # the frames, and the frame log keeps the MAC rules (no self-overlap, LTE
    # frames on their SPS offset, every CAM sent, dropped or pending).
    sim = eng.Simulation(small_engine_config(itsg5_fraction=0.5, **overrides), seed=SEED)
    log = TxLog(sim)
    run_digest = sim.run().digest()
    assert digest is None or run_digest == digest
    assert log.mismatches() == []
    assert sim.counters["rx_halfduplex"] > 0 and sim.counters["rx_opportunities"] > 0
    # Stations reselect during the run, and some windows hold blind TTIs.
    assert len(log.reads) > sim.lte_ids.size
    assert any(any(blind) for _, _, (_, _, _, blind) in log.reads)
