"""Pinned RunLog digests: any change to what a seeded run produces fails here.

A refactor must leave these values alone. A change that is meant to alter
results updates them and says why.
"""

from dataclasses import replace

import pytest

from coexsim import engine as eng
from coexsim.traffic import TrafficMode

from conftest import small_engine_config
from oracles import record_cca, record_selections

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


@pytest.mark.parametrize("mode,mix", list(GOLDEN), ids=lambda v: str(getattr(v, "value", v)))
def test_pinned_digest(mode, mix):
    base = small_engine_config(itsg5_fraction=mix)
    cfg = replace(base, traffic=replace(base.traffic, mode=mode))
    assert eng.run(cfg, seed=SEED).digest() == GOLDEN[(mode, mix)]


def test_instruments_leave_the_digest_alone():
    # Measuring must not change results: the test-side recorders only wrap
    # methods of one instance, so the 50/50 run keeps its pinned digest.
    sim = eng.Simulation(small_engine_config(itsg5_fraction=0.5), seed=SEED)
    edges, starts = record_cca(sim)
    selections = record_selections(sim)
    assert sim.run().digest() == GOLDEN[(TrafficMode.STANDARD, 0.5)]
    assert starts and any(edges.values()) and any(selections.values())
