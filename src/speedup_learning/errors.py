"""Exception hierarchy shared by all modules."""


class SpeedupLearningError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SpeedupLearningError):
    """An argument is non-finite or outside its documented range."""


class OracleIntegrityError(SpeedupLearningError):
    """The teacher returned a solution that does not replay to a goal state."""


class ReplayError(SpeedupLearningError):
    """An operator in a solution sequence was inapplicable mid-replay.

    ``step`` is the zero-based index of the failing solution element.
    """

    def __init__(self, message, step):
        super().__init__(f"{message} (step {step})")
        self.step = step


class ParseError(SpeedupLearningError):
    """Token sequence is not in the grammar's language.

    ``position`` is the index of the first token that could not be consumed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class AmbiguityError(SpeedupLearningError):
    """An Earley item was derived twice: a prefix of a production derives
    the same tokens in two ways, so the grammar violates its contract, even
    when that item lies in no parse of the whole input."""


class IncompatibleTreesError(SpeedupLearningError):
    """Trees passed to a common-cap computation have different root labels."""


class InapplicableOperatorError(SpeedupLearningError):
    """A rewrite operator's pattern does not match the target subexpression."""


class LocationError(SpeedupLearningError):
    """A child-index path does not resolve to a node of the expression."""


class MoveError(SpeedupLearningError):
    """A sliding-tile move is not applicable in the given board."""


# What an operator raises when it does not apply; callers that treat that as
# "inapplicable" catch exactly these and let anything else propagate.
INAPPLICABLE = (InapplicableOperatorError, LocationError, MoveError)


class TableCorruptionError(SpeedupLearningError):
    """A stored macro failed to apply; the macro table violates its invariant."""


class MalformedSolutionError(SpeedupLearningError):
    """A training solution cannot be split into macros for the feature ordering."""


class ConsistencyError(SpeedupLearningError):
    """A learned solver failed to reproduce its own training sample."""
