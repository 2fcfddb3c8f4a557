"""Exception taxonomy shared across the package.

Every error raised on bad input derives from :class:`OrthologicError`, so
callers (notably the CLI) can distinguish "your input is wrong" from a
genuine bug.  Structural errors carry an optional ``witness`` tuple of
element indices pinpointing the violation.
"""

from __future__ import annotations


class OrthologicError(Exception):
    """Base class for all input and structure errors."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ParseError(OrthologicError):
    """Malformed lattice document (bad directive, duplicate or unknown name)."""


class CycleError(OrthologicError):
    """Cover relation is not a DAG."""


class NotALattice(OrthologicError):
    """Order is not a bounded lattice (missing or non-unique glb/lub, no bounds)."""


class BadOrtho(OrthologicError):
    """Orthocomplementation missing, partial, or violating its laws."""


class UnknownName(OrthologicError):
    """Reference to an element or catalog entry that does not exist."""


class NotClosed(OrthologicError):
    """Subset is not closed under meet and join."""


class NotOrthomodular(OrthologicError):
    """Operation requires an orthomodular lattice."""


class NotAState(OrthologicError):
    """Value assignment violates the state axioms."""


class TooLarge(OrthologicError):
    """Problem size exceeds a supported bound (exhaustive search, direct product)."""


class BadProjector(OrthologicError):
    """Matrix is not hermitian idempotent within tolerance."""


class BadDensityMatrix(OrthologicError):
    """Matrix is not a valid density matrix within tolerance."""


class ClosureTooLarge(OrthologicError):
    """Projector closure exceeded the element cap."""


class DimensionMismatch(OrthologicError):
    """Operands live on different Hilbert-space dimensions."""


class NoComplement(OrthologicError):
    """No element satisfies both complement clauses."""


class NotUnique(OrthologicError):
    """More than one element satisfies the complement clauses."""


class PreconditionFailed(OrthologicError):
    """Scenario does not satisfy the prerequisites of the requested analysis."""
