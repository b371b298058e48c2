"""Exception types shared across the toolkit.

Everything computational raises a subclass of ToolkitError so the CLI can
map "the math said no" to one exit code and keep usage errors separate.
"""


class ToolkitError(Exception):
    """Base class for computation errors raised by this package."""


class Overflow(ToolkitError):
    """A single map application produced a non-finite value."""


class Diverged(ToolkitError):
    """An orbit left the escape ball.  Carries the 0-based step index."""

    def __init__(self, step, point=None):
        self.step = step
        self.point = point
        super().__init__(f"orbit left the escape ball at step {step}")


class NoRealFixedPoints(ToolkitError):
    pass


class PeriodDivisibleBy3(ToolkitError):
    pass


class LiftValidationFailed(ToolkitError):
    pass


class NoEventInBracket(ToolkitError):
    pass


class PaletteMissingLabel(ToolkitError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"palette has no color for label {label}")
