"""The exported MILP must describe the same optimum the searches find.

The cross-check feeds the big-M model to an independent mixed-integer
solver (HiGHS via scipy) in floating point and compares against the exact
switching search within a numerical tolerance.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import lil_matrix

from conftest import deep_searches
from ldcflow.gadgets import Polarity, gsch
from ldcflow.mpf import solve_mpf
from ldcflow.msf import build_switching_milp, export_milp, solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import Network, NodeRole, fixed_edge, subnetwork
from ldcflow.reductions import SubsetSumInstance, encode_subset_sum_cactus_msf

TOL = 1e-6

DEEP = deep_searches()


def solve_with_scipy(program, binaries):
    """Generic float bridge: LinearProgram -> scipy.optimize.milp; returns the optimum and HiGHS's solution by variable."""
    idx = {v: i for i, v in enumerate(program.variables)}
    n = len(program.variables)
    binary = set(binaries)
    integrality = np.array([1 if v in binary else 0 for v in program.variables])
    lb = np.array([-np.inf if program.lower[v] is None else float(program.lower[v]) for v in program.variables])
    ub = np.array([np.inf if program.upper[v] is None else float(program.upper[v]) for v in program.variables])

    a = lil_matrix((len(program.constraints), n))
    cl, cu = [], []
    for r, con in enumerate(program.constraints):
        for v, c in con.coeffs.items():
            a[r, idx[v]] = float(c)
        rhs = float(con.rhs)
        cl.append(rhs if con.rel in ("=", ">=") else -np.inf)
        cu.append(rhs if con.rel in ("=", "<=") else np.inf)
    c = np.zeros(n)
    for v, coef in program.objective.items():
        c[idx[v]] = -float(coef)  # scipy minimizes

    res = milp(
        c=c,
        constraints=LinearConstraint(a.tocsr(), np.array(cl), np.array(cu)),
        integrality=integrality,
        bounds=__import__("scipy.optimize", fromlist=["Bounds"]).Bounds(lb, ub),
    )
    assert res.success, res.message
    return -res.fun, dict(zip(program.variables, res.x))


@pytest.mark.parametrize(
    "network",
    [
        gsch(1, "v", Polarity.MINUS),
        Network([("g", NodeRole.GENERATOR), ("l", NodeRole.LOAD)], [fixed_edge("g", "l", 2, 4)]),
        Network(
            [("g", NodeRole.GENERATOR), ("b", NodeRole.PLAIN), ("l", NodeRole.LOAD)],
            [fixed_edge("g", "b", 1, 5), fixed_edge("b", "l", 1, 4), fixed_edge("g", "l", 1, 30)],
        ),
        encode_subset_sum_cactus_msf(SubsetSumInstance((1, 2), 2)).network,
    ],
    ids=["gadget", "single-edge", "triangle", "cactus"],
)
def test_external_solver_agrees_with_the_exact_search(network):
    program, binaries = build_switching_milp(network)
    external, _ = solve_with_scipy(program, binaries)
    exact = solve_msf_exhaustive(network).value
    assert abs(external - float(exact)) < TOL


@pytest.mark.parametrize("name", DEEP)
def test_highs_agrees_with_branch_and_bound_on_deep_searches(name):
    network, value = DEEP[name]
    out = solve_msf_bnb(network)
    assert out.value == value
    program, binaries = build_switching_milp(network)
    external, x = solve_with_scipy(program, binaries)
    assert abs(external - float(value)) < TOL
    # HiGHS's own switch set, re-solved exactly, reaches the same value
    removed = [e for e, z in zip(network.edges, binaries) if x[z] < 0.5]
    assert solve_mpf(subnetwork(network, removed)).value == value


def test_export_text_shape():
    n = gsch(1, "v", Polarity.MINUS)
    text = export_milp(n)
    assert text.count("z[") >= 3  # one binary per edge
    binary_section = text.split("Binary")[1]
    assert len(binary_section.split()) >= 3
    for section in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
        assert section in text
    assert "big-M" in text  # the derivation is documented in the header


def test_single_edge_has_one_binary():
    n = Network([("g", NodeRole.GENERATOR), ("l", NodeRole.LOAD)], [fixed_edge("g", "l", 1, 7)])
    program, binaries = build_switching_milp(n)
    assert len(binaries) == 1
    assert solve_with_scipy(program, binaries)[0] == pytest.approx(7.0, abs=TOL)


# The whole export of gsch(1): free angles, the pinned angle of the first
# node, = balance rows and a Binary section, which `solve_lp` would refuse
# and `write_lp_text` renders.
GSCH1_EXPORT = [
    r"\ Switching reconfiguration as a big-M MILP.",
    r"\ Binary z[a|b] = 1 keeps edge a--b, 0 removes it.",
    r"\ Per edge: |f| <= cap * z  and  |f - s*(th_b - th_a)| <= M * (1 - z),",
    r"\ with M = s * Theta and Theta = sum over edges of cap/s = 4.",
    r"\ Theta bounds the attainable angle spread after translating each",
    r"\ connected component, so the M never cuts off an optimal solution.",
    r"\ Objective: total generation.",
    "Maximize",
    " obj: gen[g]",
    "Subject To",
    " c0: f[g|l] + f[g|v] - gen[g] = 0",
    " c1: - f[g|l] + f[l|v] + load[l] = 0",
    " c2: - f[g|v] - f[l|v] + load[v] = 0",
    " c3: f[g|l] - 2 z[g|l] <= 0",
    " c4: - f[g|l] - 2 z[g|l] <= 0",
    " c5: th[g] - th[l] + f[g|l] + 4 z[g|l] <= 4",
    " c6: - th[g] + th[l] - f[g|l] + 4 z[g|l] <= 4",
    " c7: f[g|v] - z[g|v] <= 0",
    " c8: - f[g|v] - z[g|v] <= 0",
    " c9: th[g] - th[v] + f[g|v] + 4 z[g|v] <= 4",
    " c10: - th[g] + th[v] - f[g|v] + 4 z[g|v] <= 4",
    " c11: f[l|v] - z[l|v] <= 0",
    " c12: - f[l|v] - z[l|v] <= 0",
    " c13: th[l] - th[v] + f[l|v] + 4 z[l|v] <= 4",
    " c14: - th[l] + th[v] - f[l|v] + 4 z[l|v] <= 4",
    "Bounds",
    " th[g] = 0",
    " th[l] free",
    " th[v] free",
    " f[g|l] free",
    " f[g|v] free",
    " f[l|v] free",
    " 0 <= gen[g] <= +inf",
    " 0 <= load[l] <= +inf",
    " 0 <= load[v] <= +inf",
    "Binary",
    " z[g|l] z[g|v] z[l|v]",
    "End",
]


def test_the_export_of_the_switching_gadget_is_pinned():
    assert export_milp(gsch(1)) == "\n".join(GSCH1_EXPORT) + "\n"
