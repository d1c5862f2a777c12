"""Exception types shared across the library."""


class InputError(ValueError):
    """An argument failed validation (shape, finiteness, type, or range)."""


class DimensionError(InputError):
    """A requested rank, dimension, or index is out of range."""


class DegenerateBandwidthError(InputError):
    """A kernel bandwidth would be zero or negative."""


class NumericalError(RuntimeError):
    """A computation failed numerically; the CLI exits with code 3 for this class.

    The subclasses below name the failure; a computation that produced
    non-finite or inconsistent intermediate values raises this class itself.
    """


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget.

    The last residual is attached as the ``residual`` attribute.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class PlanNotConvergedError(NumericalError):
    """A transport plan failed its spectral certificate (leading pair not trivial)."""


class InvariantError(NumericalError):
    """A structural invariant that downstream results rely on does not hold."""
