"""Exact maximum-flow analysis of linear-DC power networks.

Core objects: `Network` (nodes with roles, susceptance/capacity edges) and
`Solution` (angles, flows, generation, load), all over exact rationals.
Solvers: `solve_mpf` (fixed topology, an LP where a component has a
cycle), `solve_msf_*` (optimal edge switching), `solve_mff_*` (FACTS
susceptance search, a lower bound, certified only without FACTS edges).
`gadgets` and `reductions` construct the choice gadgets and the
NP-hardness problem encodings with their predicted optimal values.
"""

from .classify import is_cactus, is_connected, is_tree, max_degree
from .errors import LdcError
from .gadgets import Polarity, gfch, gsch
from .lp import LinearProgram, LpResult, LpStatus, solve_lp, write_lp_text
from .maxflow import classical_max_flow
from .mff import (
    MffDecision,
    MffOutcome,
    decide_mff,
    enumerate_endpoint_optima,
    solve_mff_endpoints,
    solve_mff_grid,
)
from .mpf import MpfOutcome, formulate_mpf, solve_mpf
from .msf import (
    MsfOutcome,
    build_switching_milp,
    decide_msf,
    export_milp,
    optimal_switch_sets,
    solve_msf_bnb,
    solve_msf_exhaustive,
)
from .network import (
    Edge,
    Network,
    NodeRole,
    Solution,
    SwitchSet,
    ValidationReport,
    facts_edge,
    fixed_edge,
    network_sum,
    subnetwork,
    total_generation,
    validate_network,
    validate_solution,
    zero_solution,
)
from .rational import Rational, rat, rat_str
from .reductions import (
    EncodedInstance,
    ExactCover3Instance,
    HamiltonianInstance,
    SubsetSumInstance,
    decode_exact_cover,
    decode_subset_sum,
    encode_exact_cover_mff,
    encode_exact_cover_msf,
    encode_hamiltonian,
    encode_subset_sum_cactus_mff,
    encode_subset_sum_cactus_msf,
    encode_subset_sum_tree,
    witness_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
