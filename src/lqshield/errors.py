"""Exception types shared across the package."""


class NonStabilizable(RuntimeError):
    """Riccati iteration diverged or failed to converge: (A, B) is not stabilizable."""


class NotRun(RuntimeError):
    """A trace was requested from a policy that has not been stepped yet."""


class NotApplicable(RuntimeError):
    """The requested construction is outside its hypotheses (e.g. F1 = c*I)."""


class SingularB(ValueError):
    """B must be square and invertible for the adversarial construction."""


class SessionConflict(ValueError):
    """Two charging sessions overlap on the same station."""


class SessionParseError(ValueError):
    """A price CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """A parsed record violates its invariants (e.g. arrival >= departure)."""


class DegenerateOPT(ValueError):
    """The offline-optimal cost is (numerically) zero or not finite; a ratio
    is undefined."""


class PreconditionViolated(RuntimeError):
    """A guarantee was evaluated outside its stated hypotheses."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class ConfigError(ValueError):
    """An experiment configuration is missing or inconsistent."""
