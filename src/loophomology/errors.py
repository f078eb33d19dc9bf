"""Exception types shared across the engine."""

from __future__ import annotations


class LoopHomologyError(Exception):
    """Base class for all engine errors."""


class NegativeLowerIndex(LoopHomologyError):
    """Upper-to-lower conversion produced a negative lower index (zero class)."""


class SpaceMismatch(LoopHomologyError):
    """Binary operation on elements of different ambient spaces."""


class NotASquare(LoopHomologyError):
    """Square root requested of an element outside the Frobenius image."""


class ChargeNonzero(LoopHomologyError):
    """Component-sensitive operation applied away from the base component."""


class UnsupportedOperand(LoopHomologyError):
    """Operand outside the domain the operation is defined on."""


class NoSolution(LoopHomologyError):
    """A linear system that the theory predicts solvable had no solution."""


class NonUnique(LoopHomologyError):
    """A linear system that the theory predicts rigid had several solutions."""


class NotPrimitive(LoopHomologyError):
    """Primitive decomposition requested of a non-primitive element."""


class NoSuccessor(LoopHomologyError):
    """Suspension requested out of a space with no defined successor."""


class CounterexampleFound(LoopHomologyError):
    """A certified statement failed on an explicit witness."""


class PackedFieldOverflow(LoopHomologyError):
    """An exponent, dimension or translation does not fit its packed field."""


class DegreeBudgetExceeded(LoopHomologyError):
    """Requested computation exceeds the configured degree budget."""
