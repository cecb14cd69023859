"""Exception hierarchy. The CLI maps these to distinct exit codes."""


class LcseError(Exception):
    """Base class for all library errors."""


class InvalidInputError(LcseError):
    """A constructor or operation received out-of-contract values."""


class DomainError(LcseError):
    """State left the mathematical domain (e.g. pendulum square root)."""


class NumericalError(LcseError):
    """Integration failed; carries the time of failure when known, and in a
    batched run the index of the member that failed."""

    def __init__(self, message, tau=None, member=None):
        super().__init__(message)
        self.tau = tau
        self.member = member


class ConfigError(LcseError):
    """Config parsing/validation failed; carries the full error list."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
