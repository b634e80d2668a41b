"""Discrete-event simulation kernel used by every substrate in repro."""

from .core import AllOf, AnyOf, Environment, Event, FlatOp, Process, SimulationError, Timeout, Wake
from .resources import Container, PriorityResource, Request, Resource, Store
from .rng import RngRegistry
from .schedule import Perturber, TieGroupRecorder, capture, minimize_flips

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FlatOp",
    "Process",
    "SimulationError",
    "Timeout",
    "Wake",
    "Container",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
    "RngRegistry",
    "Perturber",
    "TieGroupRecorder",
    "capture",
    "minimize_flips",
]
