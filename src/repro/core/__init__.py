"""Core timing model and whole-generation simulator."""

from .interval import (  # noqa: F401
    IntervalBreakdown,
    estimate_from_simulation,
    interval_model,
)
from .scoreboard import CoreStats, Scoreboard  # noqa: F401
from .simulator import GenerationSimulator, SimulationResult  # noqa: F401
