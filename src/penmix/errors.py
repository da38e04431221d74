"""Exception types raised across the package."""


class PenmixError(Exception):
    """Base class for all penmix errors."""


class DegenerateDrift(PenmixError):
    """epsilon = 0 or epsilon_tilde = epsilon: the closed forms are undefined."""


class UtilityExplosion(PenmixError):
    """The future-entrant utility integral diverges, or the welfare leaves
    the float range."""


class OrderingViolation(PenmixError):
    """A standing parameter ordering (mu > r > 0, Sharpe dominance, ...) fails."""


class ParseError(PenmixError):
    """Scenario file is not valid JSON."""


class SchemaError(PenmixError):
    """Scenario file is missing a field or violates a structural invariant."""


class DomainError(PenmixError):
    """Argument outside the domain of an operation."""


class InsolventCohort(PenmixError):
    """Total equivalent disposable wealth G <= 0 for some cohort."""


class EmptyRegion(PenmixError):
    """The admissible contribution-rate region is empty."""


class ConfigError(PenmixError):
    """Invalid simulation configuration."""
