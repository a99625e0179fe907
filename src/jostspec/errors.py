"""Exception types shared across the package."""


class JostspecError(Exception):
    """Base class for all package errors."""


class ValidationError(JostspecError):
    """Malformed input: bad shapes, ranges, or configuration keys."""


class CoefficientError(JostspecError):
    """A coefficient evaluation produced an inadmissible value (a_n <= 0)."""


class BandEdgeError(JostspecError):
    """Real energy sits on a band edge (|discriminant| = 2)."""


class DegenerateBranchError(JostspecError):
    """Floquet branch cannot be selected (discriminant derivative vanishes,
    or the two eigenvalue moduli coincide off the real axis)."""


class EigenvectorDegeneracyError(JostspecError):
    """Monodromy corner entry C vanishes; the boundary eigenvector degenerates."""


class DiagonalizationError(JostspecError):
    """A renormalized transfer block has no usable eigenbasis at this energy."""

    def __init__(self, message, n=None, zeta=None):
        super().__init__(message)
        self.n = n
        self.zeta = zeta


class ZeroJostError(JostspecError):
    """Jost boundary value u_0 vanished; signals numerical failure off the axis."""


class OracleConvergenceError(JostspecError):
    """The periodic tail's fixed-point quadratic gave no finite root with
    Im m > 0, as when the period product overflows far from the bands."""


class NoAdmissibleIntervalError(JostspecError):
    """The band-edge margin left no admissible subinterval."""
