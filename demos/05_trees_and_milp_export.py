"""Where the problems stay easy, and handing the hard case to a MILP solver.

On trees there are no cycles, hence no angle coupling: the deliverable
power equals the classical max flow, a fast combinatorial computation,
and switching can never help.  The moment cycles appear the switching
problem needs search; for external tooling the library exports the
standard big-M mixed-integer formulation in LP file format, with the
big-M derivation documented in the header comments.
"""

import random

from ldcflow import (
    Network,
    NodeRole,
    classical_max_flow,
    export_milp,
    gsch,
    Polarity,
    is_tree,
    solve_mpf,
    solve_msf_bnb,
)
from ldcflow.rational import format_value

rng = random.Random(5)
names = [f"n{i}" for i in range(8)]
from ldcflow import fixed_edge

edges = [
    fixed_edge(names[rng.randrange(i)], names[i], rng.choice([1, 2]), rng.randint(1, 9))
    for i in range(1, 8)
]
roles = {names[0]: NodeRole.GENERATOR}
for v in names[1:]:
    roles[v] = rng.choice([NodeRole.LOAD, NodeRole.PLAIN])
tree = Network(roles.items(), edges)

print("random 8-node network is a tree:", is_tree(tree))
print("  classical max flow:  ", format_value(classical_max_flow(tree)))
print("  MPF (solve_mpf):     ", format_value(solve_mpf(tree).value))
print("  optimal switching:   ", format_value(solve_msf_bnb(tree).value), "(switching never helps on trees)")

print("\nbig-M MILP export of the size-1 switching gadget:")
print(export_milp(gsch(1, "v", Polarity.MINUS)))
