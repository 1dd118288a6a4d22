"""Exception types shared across the package."""


class InadmissibleQueryError(ValueError):
    """A channel query outside the model's retransmission range."""


class ProtocolViolationError(RuntimeError):
    """A policy emitted an inadmissible action during simulation."""

    def __init__(self, slot: int, message: str):
        super().__init__(f"slot {slot}: {message}")
        self.slot = slot


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its iteration budget or returned to a policy it had evaluated."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NoStationaryAoIError(RuntimeError):
    """The evaluated policy never transmits on its recurrent class; age diverges."""


class TruncationError(NoStationaryAoIError):
    """The age cap is too small: the budget needs a policy that idles forever at the cap."""


class MultichainError(RuntimeError):
    """A policy's chain could not be evaluated: it has two closed recurrent
    classes (the policy idles surely at (n_max, 0) while (1, 0) is recurrent
    too), or, as the subclass ``InaccurateSolveError``, a solve on a chain
    with one closed class missed its accuracy bound."""


class InaccurateSolveError(MultichainError):
    """A policy evaluation or stationary solve left a residual above its bound.

    A subclass of ``MultichainError``, so a caller that catches that catches
    this too; one that must tell the two faults apart catches this first.
    """


class BracketingError(RuntimeError):
    """A multiplier bracket around the budget could not be established."""


class EtaSearchError(RuntimeError):
    """Multiplier search failed; carries the (eta, cost) trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace
