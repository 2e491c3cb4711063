"""Exception types shared across the package."""

from __future__ import annotations


class KphError(Exception):
    """Base class for all kph errors."""


class DataError(KphError):
    """Input data fails a validation rule (range, completeness, mismatch)."""


class FormatError(DataError):
    """A file could not be parsed; carries file / record / field context."""

    def __init__(self, message: str, *, path=None, line: int | None = None,
                 field: str | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        self.field = field
        parts = []
        if self.path is not None:
            parts.append(self.path)
        if line is not None:
            parts.append(f"record {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class HierarchyError(KphError):
    """A hierarchy violates its structural invariants (cycle, overlap, ...)."""
