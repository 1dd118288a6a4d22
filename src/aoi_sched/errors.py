"""Exception types shared across the package."""


class InadmissibleQueryError(ValueError):
    """A channel query outside the model's retransmission range."""


class ProtocolViolationError(RuntimeError):
    """A policy emitted an inadmissible action during simulation."""

    def __init__(self, slot: int, message: str):
        super().__init__(f"slot {slot}: {message}")
        self.slot = slot


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NoStationaryAoIError(RuntimeError):
    """The evaluated policy never transmits on its recurrent class; age diverges."""


class TruncationError(NoStationaryAoIError):
    """The age cap is too small: the budget needs a policy that idles forever at the cap."""


class MultichainError(RuntimeError):
    """The induced chain has more than one closed recurrent class."""


class BracketingError(RuntimeError):
    """A multiplier bracket around the budget could not be established."""


class EtaSearchError(RuntimeError):
    """Multiplier search failed; carries the (eta, cost) trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace
