"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent dimensions, grids, or run configuration."""


class SingularSystemError(RuntimeError):
    """A dense solve failed; signals a discretization inconsistency."""


class BlowUpError(RuntimeError):
    """A field or trajectory exceeded the configured node-norm bound."""

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index
