"""Exception types shared across the package."""


class PoleError(ArithmeticError):
    """A denominator vanished at the requested evaluation/substitution point."""


class ParseError(ValueError):
    """Malformed expression text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NotAPartition(ValueError):
    """A weakly decreasing word was required."""


class InvalidRate(ValueError):
    """Hop rate outside [0, 1]."""


class SingularSystem(ArithmeticError):
    """The stationary linear system did not have a one-dimensional kernel,
    or its solution failed the exact check pi P = pi, sum(pi) = 1, pi >= 0."""


class DivergenceError(ValueError):
    """Truncated-trace parameters outside the region of convergence."""


class NoConvergence(ArithmeticError):
    """Adaptive truncation failed to stabilise within the size cap."""


class RelationViolation(AssertionError):
    """A matrix identity failed; names the relation and the offending entry."""

    def __init__(self, relation: str, entry: tuple, lhs, rhs):
        super().__init__(f"relation {relation} fails at entry {entry}: {lhs} != {rhs}")
        self.relation = relation
        self.entry = entry
        self.lhs = lhs
        self.rhs = rhs


class InvalidQueue(ValueError):
    """A two-line queue violating the matching rules."""
