"""Exception types shared across the simulator."""


class MorphfinError(Exception):
    """Base class for all simulator errors."""

    def __reduce__(self):  # unpickle from the message and attributes, not through __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__


class DomainError(MorphfinError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConfigError(MorphfinError):
    """Invalid configuration value; raised before any simulation starts."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class UnreachableConfigurationError(DomainError):
    """The four-bar linkage cannot close at the requested drive angle."""

    def __init__(self, drive_angle: float):
        self.drive_angle = drive_angle
        super().__init__(
            f"linkage cannot close at drive angle {drive_angle!r} rad"
        )


class SimulationFault(MorphfinError):
    """A run produced non-finite actuation or a non-finite state."""

    def __init__(self, time: float, detail: str = "non-finite actuation"):
        self.time = time
        super().__init__(f"{detail} at t={time:.6f} s")


class UndefinedCotError(DomainError):
    """COT is undefined for a zero or negative mean speed."""


class InsufficientDataError(DomainError):
    """A metric window does not contain enough gait cycles."""


class TelemetryFormatError(MorphfinError):
    """Telemetry file violates the CSV contract."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)
