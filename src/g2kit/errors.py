"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
all of them derive from G2KitError so blanket handling stays possible.
"""


class G2KitError(Exception):
    """Base class for all g2kit errors."""


class InvalidOperand(G2KitError):
    """Operands with mismatched dimension/degree, or out-of-range arguments."""


class SingularMap(G2KitError):
    """A linear map that fails an invertibility requirement."""


class DegenerateMetric(G2KitError):
    """Metric input that is singular or inconsistent with its volume form."""


class NotStable(G2KitError):
    """A 3-form outside the open orbit that induces a positive metric."""


class NotHyperKahler(G2KitError):
    """A 2-form triple violating the quaternionic wedge relations."""


class DegeneratePlane(G2KitError):
    """Spanning vectors that fail to span a 4-dimensional subspace."""


class GroupTooLarge(G2KitError):
    """Group closure exceeded the configured element bound."""


class NotEquivariant(G2KitError):
    """A map that fails a required commutation/equivariance property."""


class NotAntiInvolution(G2KitError):
    """An involution candidate that is not an involution or not normalizing."""


class PullObstruction(G2KitError):
    """A circle coordinate that cannot be converted to a line coordinate."""


class OddCrossSectionB3(G2KitError):
    """Cross-section b^3 must be even for the moduli dimension formula."""


class InvalidEnds(G2KitError):
    """End count outside the supported range."""


class InvalidInvariants(G2KitError):
    """Non-symplectic involution invariants (r, a) out of range."""


class RankTooLarge(G2KitError):
    """Restriction-map rank exceeding the available second Betti number."""


class InvalidScale(InvalidOperand):
    """Non-positive resolution scale parameter."""


class ChartSingular(G2KitError):
    """Evaluation at a point excluded from the coordinate chart."""


class NumericFailure(G2KitError):
    """A numerical procedure that failed to converge or validate."""


class CutoffTooLarge(G2KitError):
    """Mode cutoff producing a system beyond the configured size bound."""


class IntegratorError(G2KitError):
    """ODE integration failure."""


class NotExact(G2KitError):
    """A form in the discrete complex that is not exact (or not closed)."""


class InvalidScenario(G2KitError):
    """Malformed scenario description."""
