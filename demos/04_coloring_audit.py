"""Auditing a coloring that uses too few colors.

When a coloring of the hyperedges stays within n - alt + k - 2 colors, it
cannot properly color the Kneser graph, and the audit walk turns that
impossibility into a concrete exhibit: two disjoint hyperedges sharing a
color.  Proper colorings (which always need more colors than that) let
the walk terminate and are confirmed by a final properness scan.
"""

from altermatic import (
    Coloring,
    ProperWithinBound,
    audit,
    chromatic_number,
    complete_uniform,
    kneser_graph,
    verify_witness,
)
from altermatic.reference import enumerate_audit_graph

h = complete_uniform(4, 2)
edge_sets = h.edge_sets()

# the regime here allows a single color; any 1-coloring must clash
ones = Coloring((1,) * 6, 1)
w = audit(h, ones, 1)
print("one color on all 2-subsets of [4]:")
print(f"  witness: edges {edge_sets[w.edge_a]} and {edge_sets[w.edge_b]}, color {w.color}")
print(f"  surfaced at sign word {w.context.word()}, re-verified: {verify_witness(w, h, ones)}")

# three colors on the 6-vertex family, still one short of chi = 4
h6 = complete_uniform(6, 2)
capped = Coloring(tuple(min(min(e), 3) for e in h6.edge_sets()), 3)
w = audit(h6, capped, 1)
print("\nmin-vertex coloring capped at 3 on KG(6,2):")
print(f"  witness: edges {h6.edge_sets()[w.edge_a]} and {h6.edge_sets()[w.edge_b]}, color {w.color}")

# a proper coloring passes
proper = chromatic_number(kneser_graph(h)).coloring
out = audit(h, proper, 1)
assert isinstance(out, ProperWithinBound)
print(f"\noptimal proper coloring: walk ended after {out.steps} steps, coloring confirmed proper")

# the walk works because of the audit graph's degree profile
stats = enumerate_audit_graph(h, proper, 1)
print(
    f"\naudit graph census (proper coloring): {stats.vertex_count} chains, "
    f"degrees {dict(sorted(stats.degree_histogram.items()))}, "
    f"{len(stats.violations)} violations"
)
stats = enumerate_audit_graph(h, ones, 1)
print(
    f"audit graph census (one color):       {stats.vertex_count} chains, "
    f"degrees {dict(sorted(stats.degree_histogram.items()))}, "
    f"{len(stats.violations)} violations (each carries a witness)"
)
