"""Shared exception taxonomy.

Exit-code mapping used by the CLI: subclasses of :class:`UsageError` mean bad
input (exit 2); subclasses of :class:`InternalError` mean a broken internal
invariant (exit 3).
"""


class CFPeriodError(Exception):
    pass


class UsageError(CFPeriodError):
    """Bad input or violated precondition; the caller can fix the call."""


class InternalError(CFPeriodError):
    """An internal invariant failed; this is a bug, not a usage problem."""


# --- field / element level ---------------------------------------------------

class MixedFieldError(UsageError):
    pass


class BadFieldParameter(UsageError, ValueError):
    """d is below 2 or not squarefree."""


class DivisionByZero(UsageError, ZeroDivisionError):
    pass


class RationalInput(UsageError):
    pass


class NegativeInput(UsageError):
    pass


class ZeroInput(UsageError):
    pass


# --- continued fractions -----------------------------------------------------

class StepCapExceeded(CFPeriodError):
    """Raised when a continued-fraction walk hits its state cap.

    Carries enough state for callers to report a certified lower bound on the
    period length (no state repeats before the cycle closes).
    """

    def __init__(self, steps: int, preperiod_seen: int):
        super().__init__(f"step cap hit after {steps} states")
        self.steps = steps
        self.preperiod_seen = preperiod_seen


# --- polynomial algebra ------------------------------------------------------

class DegreeTooLarge(UsageError):
    pass


class NotIrreducible(UsageError):
    pass


class PrecisionExhausted(InternalError):
    pass


# --- places / growth ---------------------------------------------------------

class HypothesisViolated(UsageError):
    pass


class TooFewPoints(UsageError):
    pass


# --- CLI ---------------------------------------------------------------------

class ParseError(UsageError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PreconditionViolated(UsageError):
    pass


class InternalInvariantError(InternalError):
    pass
