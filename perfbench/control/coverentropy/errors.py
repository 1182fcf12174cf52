"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented invariant (measure, family, division, JSON)."""


class SpaceMismatchError(ValidationError):
    """Two objects that must live on the same discrete space do not."""


class BudgetExceededError(RuntimeError):
    """A search or enumeration could not finish within its candidate budget."""
