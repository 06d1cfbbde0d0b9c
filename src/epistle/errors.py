"""Exception types shared across the package."""


class EpistleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EpistleError):
    """Malformed formula text.

    ``position`` is the offset, in characters, not bytes, of the offending token.
    """

    def __init__(self, message: str, position: int):
        if len(message) > 64:  # it quotes a long token: keep the two ends
            message = message[:32] + "…" + message[-31:]
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class IndexOutOfRange(ParseError):
    """An agent or proposition index exceeds the declared agent count."""


class DeadWorld(EpistleError):
    """A formula was evaluated at a world no longer in the model."""


class SizeLimit(EpistleError):
    """The request exceeds the explicit backend's agent-count bound."""


class ContradictoryPremise(EpistleError):
    """The announcement sequence eliminated every world."""


class StoreCapacity(EpistleError):
    """The decision-diagram store hit its node-count limit."""


class GenerationStall(EpistleError):
    """Problem generation failed to fill a label bucket within the draw budget."""


class BackendMismatch(EpistleError):
    """The explicit and symbolic checkers disagreed on a label."""
