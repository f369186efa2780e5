"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries a 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConfigError(ValueError):
    """Raised on malformed or inconsistent configuration data."""


class ConsistencyError(ValueError):
    """Raised when computed invariants violate a relation that must hold.

    The offending relation is named in the message so reports can point
    at the exact identity that failed.
    """

    def __init__(self, relation, message):
        super().__init__(f"{relation}: {message}")
        self.relation = relation


class LocalWorkLimitError(ValueError):
    """Raised when a local standard basis computation passes the work
    limit of `singkit.localring` (LOCAL_WORK_LIMIT)."""
