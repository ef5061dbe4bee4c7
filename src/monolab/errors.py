"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the chart (or other geometric domain)."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested operation (e.g. zero mass)."""


class PreconditionError(ValueError):
    """A stated hypothesis of the operation fails on the given input."""


class NumericalError(RuntimeError):
    """A numerical step failed (singular solve, non-SPD metric sample, ...)."""


class ConfigError(ValueError):
    """Scenario configuration is invalid; carries file/line/key diagnostics.
    Constructors raise it with the key they reject; the parser adds the file
    and the line."""

    def __init__(self, message, line=None, key=None, source=None):
        self.message = message
        self.line = line
        self.key = key
        self.source = source
        where = [] if source is None else [str(source)]
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(prefix + message)
