"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid declarative input: bad dimensions, scales, kinds, or files."""
