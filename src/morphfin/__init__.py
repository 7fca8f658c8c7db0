"""Free-swimming robotic tuna simulator with a morphing dorsal fin."""

from .control import BuoyancyState, GaitCommand, PidGains
from .hydro import FishParams, FishState, simulate
from .linkage import FinGeometry, LinkageGeometry
from .metrics import PowerModel, cot
from .telemetry import TelemetryRecord

__version__ = "0.1.0"
