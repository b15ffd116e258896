"""Exception types shared across the package.

Usage errors (bad arguments, malformed files) raise plain ``ValueError`` /
``OSError``; ``PhysicalityError`` marks failures of physics or numerics
that can only be detected from the data itself.
``SweepPointError`` wraps either kind with the sweep point it came from.
"""


class PhysicalityError(Exception):
    """A state, channel, or derived quantity violates a physical invariant.

    Raised for non-unit traces, negative eigenvalues beyond tolerance,
    covariances below the Heisenberg floor, and ill-conditioned or
    overflowing propagators.
    """


class SweepPointError(Exception):
    """One point of a drive-duration sweep failed.

    ``t_r`` is the drive duration in ms; the original exception is chained
    as ``__cause__`` and decides whether the failure is a usage or a
    numerical one.
    """

    def __init__(self, t_r: float, cause: BaseException):
        super().__init__(t_r, cause)  # both in args, so the error pickles
        self.t_r = t_r

    def __str__(self) -> str:
        return f"sweep point t_r={self.t_r:g} ms: {self.args[1]}"
