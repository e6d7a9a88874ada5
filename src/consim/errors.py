"""Exception types shared across the simulator."""


class ConsimError(Exception):
    """Base class for all simulator errors."""


class DisconnectedGraph(ConsimError):
    """The topology handed to a run is not connected."""


class WouldDisconnect(ConsimError):
    """Removing the requested edge would disconnect the graph."""


class InvalidParams(ConsimError):
    """A generator or formula was called with out-of-range parameters."""


class NonTermination(ConsimError):
    """An execution hit the event cap, or went quiescent before every node
    produced an output.  Either way the protocol did not terminate properly."""


class IncompleteTrace(ConsimError):
    """A metric that needs a completed execution was given a trace in which
    some node never emitted an output."""


class NotHierarchical(ConsimError):
    """A tree-aggregation protocol was asked to compute a function that has
    no commutative/associative combine step."""


class DomainOverflow(ConsimError):
    """A value or intermediate no longer fits in its fixed bit budget."""


class DuplicateUidConflict(ConsimError):
    """Two different values were observed for the same node UID; the trace
    is corrupt."""


class InvariantViolation(ConsimError):
    """Protocol state broke an invariant its algorithm relies on, e.g. after
    a link failure the protocol does not support at that point."""


class TraceViolation(ConsimError, AssertionError):
    """A trace, in memory or in a file, breaks an invariant of every fair
    execution.  Also an AssertionError, which callers may catch."""


class StaleRoutingEntry(ConsimError):
    """A routed message references a next hop that is no longer a neighbor."""


class ConfigError(ConsimError):
    """An experiment configuration failed validation."""
