"""Discrete-event simulator for co-channel coexistence of ITS-G5 (CSMA/CA) and
sidelink LTE-V2X Mode 4 (semi-persistent scheduling) on a highway."""

from .engine import EngineConfig, RunLog, Simulation, run
from .harness import ExperimentConfig, load_config, main, run_experiment
from .results import Aggregate, PrrHistogram, aggregate
from .scenario import Fleet, RoadConfig
from .traffic import TrafficConfig, TrafficMode

__version__ = "0.1.0"

__all__ = [
    "Aggregate",
    "EngineConfig",
    "ExperimentConfig",
    "Fleet",
    "PrrHistogram",
    "RoadConfig",
    "RunLog",
    "Simulation",
    "TrafficConfig",
    "TrafficMode",
    "aggregate",
    "load_config",
    "main",
    "run",
    "run_experiment",
]
