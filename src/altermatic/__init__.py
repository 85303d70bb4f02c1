"""Altermatic lower bounds for chromatic numbers of general Kneser graphs.

The library builds Kneser graphs from hypergraphs, computes their exact
chromatic numbers, evaluates the alternation-based lower bound (per vertex
ordering and minimized over orderings), and audits colorings that use
fewer colors than the bound allows by constructively extracting two
disjoint, identically colored hyperedges.
"""

from .core import (
    Hypergraph,
    LinearOrder,
    SearchLimitError,
    SignVector,
    SimpleGraph,
    alt,
    apply_order,
    mask_of,
    restrict,
    support_size,
    vertices_of,
)
from .kneser import complete_uniform, kneser_graph, random_hypergraph, schrijver_hypergraph
from .coloring import ChromaticResult, Coloring, chromatic_at_most, chromatic_number, is_proper
from .bounds import AltReport, TheoremCheck, alt_min, alt_sigma, verify_theorem
from .audit import (
    AuditAnomaly,
    AuditContext,
    ProperWithinBound,
    Witness,
    audit,
    neighbors,
    verify_witness,
)
from .files import ParseError, parse_coloring, parse_hypergraph, serialize_coloring, serialize_hypergraph

# The oracle module loads with the package, like every library module: a
# module first imported while a caller has wrapped one of the library's
# functions (as a profiler does) would keep the wrapper for good.
from . import reference  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "AltReport",
    "AuditAnomaly",
    "AuditContext",
    "ChromaticResult",
    "Coloring",
    "Hypergraph",
    "LinearOrder",
    "ParseError",
    "ProperWithinBound",
    "SearchLimitError",
    "SignVector",
    "SimpleGraph",
    "TheoremCheck",
    "Witness",
    "alt",
    "alt_min",
    "alt_sigma",
    "apply_order",
    "audit",
    "chromatic_at_most",
    "chromatic_number",
    "complete_uniform",
    "is_proper",
    "kneser_graph",
    "mask_of",
    "neighbors",
    "parse_coloring",
    "parse_hypergraph",
    "random_hypergraph",
    "restrict",
    "schrijver_hypergraph",
    "serialize_coloring",
    "serialize_hypergraph",
    "support_size",
    "verify_theorem",
    "verify_witness",
    "vertices_of",
]
