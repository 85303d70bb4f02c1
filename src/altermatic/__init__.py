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
    subset_of,
    support_size,
    vertices_of,
)
from .kneser import complete_uniform, kneser_graph, random_hypergraph, schrijver_hypergraph
from .coloring import ChromaticResult, Coloring, chromatic_at_most, chromatic_number, is_proper
from .bounds import AltReport, TheoremCheck, alt_min, alt_sigma, feasible, verify_theorem
from .audit import (
    AuditAnomaly,
    AuditContext,
    AuditGraphStats,
    PermissibleSequence,
    ProperWithinBound,
    SignedLevel,
    TieDetected,
    Violation,
    Witness,
    audit,
    enumerate_audit_graph,
    max_enclosed_color,
    neighbors,
    signed_level,
    verify_witness,
)
from .files import ParseError, parse_coloring, parse_hypergraph, serialize_coloring, serialize_hypergraph

__version__ = "0.1.0"

__all__ = [
    "AltReport",
    "AuditAnomaly",
    "AuditContext",
    "AuditGraphStats",
    "ChromaticResult",
    "Coloring",
    "Hypergraph",
    "LinearOrder",
    "ParseError",
    "PermissibleSequence",
    "ProperWithinBound",
    "SearchLimitError",
    "SignVector",
    "SignedLevel",
    "SimpleGraph",
    "TheoremCheck",
    "TieDetected",
    "Violation",
    "Witness",
    "alt",
    "alt_min",
    "alt_sigma",
    "apply_order",
    "audit",
    "chromatic_at_most",
    "chromatic_number",
    "complete_uniform",
    "enumerate_audit_graph",
    "feasible",
    "is_proper",
    "kneser_graph",
    "mask_of",
    "max_enclosed_color",
    "neighbors",
    "parse_coloring",
    "parse_hypergraph",
    "random_hypergraph",
    "restrict",
    "schrijver_hypergraph",
    "serialize_coloring",
    "serialize_hypergraph",
    "signed_level",
    "subset_of",
    "support_size",
    "verify_theorem",
    "verify_witness",
    "vertices_of",
]
