"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class FreerepError(Exception):
    """Base class for all toolkit errors."""


class NotAGroup(FreerepError):
    """Multiplication data fails a group axiom; carries the failing witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason}: {witness}")
        self.reason = reason
        self.witness = witness


class InvariantViolated(FreerepError):
    """A result failed its own exact re-verification: a fault, never an answer."""


class CapExceeded(FreerepError):
    pass


class DeadlineExceeded(FreerepError):
    pass


class BadSize(FreerepError):
    pass


class BadParams(FreerepError):
    pass


class ParentMismatch(FreerepError):
    pass


class NotAPartition(FreerepError):
    pass


class NotUnit(FreerepError):
    pass


class NoQuaternionLabels(FreerepError):
    pass


class NotSylowCyclic(FreerepError):
    pass


class NotCycloidal(FreerepError):
    pass


class NotCyclic(FreerepError):
    pass


class NotFaithful(FreerepError):
    pass


class NotCoprime(FreerepError):
    pass


class NotFreelyRepresentable(FreerepError):
    pass


class BadConductor(FreerepError):
    pass


class ParseError(FreerepError):
    """Group-spec syntax error with a 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
