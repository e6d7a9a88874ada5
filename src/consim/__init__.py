"""Discrete-event simulator and bandwidth-complexity harness for consensus
protocols on broadcast networks."""

from .averaging import AverageProtocol
from .engine import (Automaton, Event, ExecutionTrace, Protocol, Simulation,
                     TimingParams, run, trace_digest, validate_trace,
                     SCHEDULERS)
from .flooding import FloodingProtocol
from .ghs import (GhsMstProtocol, GhsParallelProtocol, GhsTokenProtocol,
                  ParallelConvergecastProtocol, TokenConvergecastProtocol,
                  TokenPass, TreeInfo, mst_edges, root_tree, tree_from_automata)
from .hybrid import (FailureExperiment, HybridProtocol, branch_sizes,
                     check_cluster_discipline, cluster_map)
from .errors import (ConsimError, DisconnectedGraph, WouldDisconnect,
                     InvalidParams, NonTermination, IncompleteTrace,
                     NotHierarchical, DomainOverflow, DuplicateUidConflict,
                     StaleRoutingEntry, ConfigError, InvariantViolation,
                     TraceViolation)
from .functions import (ConsensusFunction, MaxFunction, MinFunction,
                        MeanFunction, VoteFunction, MedianFunction,
                        get_function, oracle)
from .messages import Message, SizeModel, uid_bits_for_pool
from .metrics import (ComplexityReport, byte_complexity, message_complexity,
                      peak_bandwidth, peak_bandwidth_by_phase,
                      report_from_trace, time_complexity)
from .topology import (Graph, edge_weight, fail_link, kruskal_mst,
                       make_topology)

__version__ = "0.1.0"
