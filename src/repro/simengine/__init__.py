"""Discrete-event simulation kernel used by every substrate in repro."""

from .core import AllOf, Environment, Event, FlatOp, Process, SimulationError, Timeout, Wake
from .resources import Request, Resource, Store
from .rng import RngRegistry
from .schedule import Perturber, TieGroupRecorder, capture, minimize_flips

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "FlatOp",
    "Process",
    "SimulationError",
    "Timeout",
    "Wake",
    "Request",
    "Resource",
    "Store",
    "RngRegistry",
    "Perturber",
    "TieGroupRecorder",
    "capture",
    "minimize_flips",
]
