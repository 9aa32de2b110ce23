"""The package's base error: every malcom error class subclasses it."""


class MalcomError(ValueError):
    """Invalid input, parameters or state; the CLI reports it as ``error: …``
    and exits 1."""


class ParameterError(MalcomError):
    """A parameter outside its domain; the CLI reports it as a usage error
    and exits 2."""
