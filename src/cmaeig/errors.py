"""Exception hierarchy.

Every failure mode that callers are expected to branch on gets its own class;
they all derive from CmaError so a CLI layer can map "library failure" to a
single exit code.
"""


class CmaError(Exception):
    """Base class for all library-specific failures."""


# --- domain / grid ---------------------------------------------------------


class EmptyInterior(CmaError):
    """No grid node satisfies rho < 0."""


class ResolutionTooCoarse(CmaError):
    """Interior nodes do not form a single face-connected component."""


class NonPositiveDensity(CmaError):
    """A density evaluated to <= 0, or to NaN or infinity, at some grid node."""


# --- hessian / matrix algebra ---------------------------------------------


class NotPositiveSemiDefinite(CmaError):
    """A matrix required to be PSD has an eigenvalue below -tol."""


class PreconditionViolated(CmaError):
    """An input violates a precondition of the routine it was passed to."""


class NotPSH(CmaError):
    """A field required to be plurisubharmonic (within tol) is not."""


# --- solvers ---------------------------------------------------------------


class NewtonStalled(CmaError):
    """Line search failed to produce a decrease after 30 halvings."""


class NotConverged(CmaError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class MonotonicityViolated(CmaError):
    """A monotone iterate decreased by more than 10*tol at some node."""


class EigenvalueBoundViolated(CmaError):
    """Declared lambda_0 is not below the supplied eigenvalue estimate."""


class BranchInfeasible(CmaError):
    """Branch solve diverged (sup-norm cap exceeded): lambda is at or above mu_1."""


class ScheduleExhausted(CmaError):
    """Continuation hit its lambda cap without detecting blow-up.

    Carries the best lower bound for the eigenvalue achieved so far.
    """

    def __init__(self, message, lambda_lower_bound=None):
        super().__init__(message)
        self.lambda_lower_bound = lambda_lower_bound


# --- variational -----------------------------------------------------------


class ZeroMass(CmaError):
    """Rayleigh quotient requested for a field with zero mass."""


class DegenerateIterate(CmaError):
    """Inverse-power iterate collapsed (mass below 1e-12)."""


# --- radial oracle ---------------------------------------------------------


class VanishingGradient(CmaError):
    """Radial profile gradient fell below 1e-14 (lambda infeasibly high)."""


class BracketFailed(CmaError):
    """The radial profile has no zero below the search cap on lambda * R^2."""


# --- serialization ----------------------------------------------------------


class SerializationError(CmaError):
    """Binary payload is malformed or inconsistent with its own header."""


# --- cli -------------------------------------------------------------------


class ConfigError(CmaError):
    """Invalid or contradictory run configuration; message names the field."""
