"""Exception hierarchy shared across the package.

Every error raised by library code derives from TransvectError so callers
(and the CLI) can separate domain failures from programming bugs.  Budget
exhaustion gets its own branch because the CLI maps it to a distinct exit
code.
"""

from __future__ import annotations


class TransvectError(Exception):
    """Base class for all domain errors."""


class CapExceeded(TransvectError):
    """A configured enumeration budget ran out before the answer was known.

    ``radius`` / ``count`` carry how far the computation got, when known.
    """

    def __init__(self, msg: str, *, radius: int | None = None, count: int | None = None):
        super().__init__(msg)
        self.radius = radius
        self.count = count


# -- field errors ------------------------------------------------------------

class NotPrime(TransvectError):
    pass


class DegreeTooLarge(TransvectError):
    pass


class DivisionByZero(TransvectError):
    pass


class FieldMismatch(TransvectError):
    pass


class NoInvolution(TransvectError):
    """Raised when the order-2 field automorphism is requested for odd f."""


# -- linear algebra ----------------------------------------------------------

class DimensionMismatch(TransvectError):
    pass


class Singular(TransvectError):
    pass


class NoSolution(TransvectError):
    pass


# -- transvections -----------------------------------------------------------

class NotIsotropic(TransvectError):
    """phi(v) != 0: the pair does not define a determinant-1 transvection."""


class ZeroVector(TransvectError):
    pass


class NotTransvection(TransvectError):
    """The matrix is not a transvection; ``index`` points at the offending
    generator when raised while parsing a list."""

    def __init__(self, msg: str, index: int | None = None):
        super().__init__(msg)
        self.index = index


class UnsupportedKind(TransvectError):
    pass


# -- graph / group analysis --------------------------------------------------

class NotIrreducible(TransvectError):
    def __init__(self, msg: str, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotDense(TransvectError):
    def __init__(self, msg: str, counterexample=None):
        super().__init__(msg)
        self.counterexample = counterexample


class NotStronglyConnected(TransvectError):
    pass


# -- forms -------------------------------------------------------------------

class WrongCharacteristic(TransvectError):
    pass


class NotInvariantForm(TransvectError):
    pass


class MissingForm(TransvectError):
    pass


class NoWitness(TransvectError):
    pass


class NotFound(TransvectError):
    pass


# -- classification / cayley / cli -------------------------------------------

class BadParameters(TransvectError):
    pass


class WrongField(TransvectError):
    pass


class UnsupportedTag(TransvectError):
    pass


class NotExplored(TransvectError):
    pass


class ParseError(TransvectError):
    """Malformed input file; ``line`` / ``index`` locate the problem when
    known."""

    def __init__(self, msg: str, *, line: int | None = None, index: int | None = None):
        super().__init__(msg)
        self.line = line
        self.index = index


class InternalError(TransvectError):
    """An invariant the algorithms rely on failed: a bug, not bad input.
    The CLI maps it to exit code 3."""


def _require(ok: bool, what: str) -> None:
    """Check an invariant the algorithms rely on; unlike `assert` the check
    survives `python -O`."""
    if not ok:
        raise InternalError(what)
