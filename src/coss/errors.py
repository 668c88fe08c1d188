"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters more than the message wording.
"""


class ConfigError(ValueError):
    """A config value violates one of its documented invariants (exit 2)."""


class FormatError(Exception):
    """A file does not conform to its binary layout (exit 3)."""


class NumericalError(ValueError):
    """A NaN/Inf showed up where only finite values are allowed (exit 4)."""
