"""JSON formats for networks, solutions, outcomes and problem instances.

Rationals serialize as strings -- "p/q", an integer, or a finite decimal
-- and parse back exactly; floats are rejected.  Edge-keyed maps
serialize as arrays of {"a", "b", ...} records in canonical edge order,
node-keyed maps as plain objects, so files are deterministic and
round-trip byte-for-byte.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .mff import MffOutcome, SusAssignment
from .mpf import MpfOutcome
from .msf import MsfOutcome
from .network import Edge, Network, NodeRole, Solution, SwitchSet, subnetwork
from .rational import Rational, rat, rat_str
from .reductions import (
    EncodedInstance,
    ExactCover3Instance,
    HamiltonianInstance,
    SubsetSumInstance,
)


def _rat_in(value: Any) -> Rational:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"expected an exact rational (string or int), got {value!r}")
    return rat(value)


# --- networks ---------------------------------------------------------------


def network_to_json(n: Network) -> dict:
    return {
        "nodes": [{"id": name, "role": role.value} for name, role in n.nodes],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "s_min": rat_str(e.s_min),
                "s_max": rat_str(e.s_max),
                "cap": rat_str(e.cap),
            }
            for e in n.edges
        ],
    }


def _get(record: Any, key: str, where: str, kind: type = object) -> Any:
    """record[key], or a ValueError naming the field when the record lacks it or it is not a `kind`."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object, got {type(record).__name__}")
    if key not in record:
        raise ValueError(f"{where} has no field {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise ValueError(f"{where}.{key} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _rat_field(record: dict, key: str, where: str) -> Rational:
    value = _get(record, key, where)
    try:
        return _rat_in(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}.{key}: {exc}") from None


_ROLES = tuple(r.value for r in NodeRole)


def network_from_json(data: dict) -> Network:
    """The network a document describes; a document of the wrong shape raises a ValueError naming the field."""
    nodes = []
    for i, nd in enumerate(_get(data, "nodes", "network", list)):
        where = f"nodes[{i}]"
        name, role = _get(nd, "id", where, str), _get(nd, "role", where)
        if role not in _ROLES:
            raise ValueError(f"{where}.role must be one of {', '.join(_ROLES)}, got {role!r}")
        nodes.append((name, NodeRole(role)))
    edges = []
    for i, ed in enumerate(_get(data, "edges", "network", list)):
        where = f"edges[{i}]"
        a, b = _get(ed, "a", where, str), _get(ed, "b", where, str)
        edges.append(Edge(a, b, _rat_field(ed, "s_min", where), _rat_field(ed, "s_max", where), _rat_field(ed, "cap", where)))
    return Network(nodes, edges)


# --- solutions and outcomes --------------------------------------------------


def _edge_map_out(mapping) -> list[dict]:
    return [
        {"a": e.a, "b": e.b, "value": rat_str(v)}
        for e, v in sorted(mapping.items())
    ]


def _node_map_out(mapping) -> dict:
    return {v: rat_str(x) for v, x in sorted(mapping.items())}


def _edge_in(rec: Any, where: str, by_pair: dict[tuple[str, str], Edge]) -> Edge:
    """The network's edge an {"a", "b", ...} record names."""
    a, b = _get(rec, "a", where, str), _get(rec, "b", where, str)
    pair = tuple(sorted((a, b)))
    if pair not in by_pair:
        raise ValueError(f"{where}: no edge {pair[0]}--{pair[1]} in the network")
    return by_pair[pair]


def _edge_map_in(records: list, where: str, n: Network) -> dict[Edge, Rational]:
    by_pair = {e.pair: e for e in n.edges}
    out = {}
    for i, rec in enumerate(records):
        at = f"{where}[{i}]"
        out[_edge_in(rec, at, by_pair)] = _rat_field(rec, "value", at)
    return out


def solution_to_json(sol: Solution) -> dict:
    return {
        "susceptance": _edge_map_out(sol.susceptance),
        "flow": _edge_map_out(sol.flow),
        "angle": _node_map_out(sol.angle),
        "gen": _node_map_out(sol.gen),
        "load": _node_map_out(sol.load),
    }


def _node_map_in(data: dict, key: str) -> dict:
    values, where = _get(data, key, "solution", dict), f"solution.{key}"
    return {v: _rat_field(values, v, where) for v in values}


def solution_from_json(data: dict, n: Network) -> Solution:
    """Rebuild a solution against the network its maps refer to."""
    return Solution(
        susceptance=_edge_map_in(_get(data, "susceptance", "solution", list), "solution.susceptance", n),
        flow=_edge_map_in(_get(data, "flow", "solution", list), "solution.flow", n),
        angle=_node_map_in(data, "angle"),
        gen=_node_map_in(data, "gen"),
        load=_node_map_in(data, "load"),
    )


def mpf_outcome_from_json(data: dict, n: Network) -> MpfOutcome:
    """Read a `solve mpf --json` document."""
    return MpfOutcome(_rat_field(data, "value", "outcome"), solution_from_json(_get(data, "solution", "outcome"), n))


def _switch_set_out(switched: SwitchSet) -> list[dict]:
    return [{"a": e.a, "b": e.b} for e in sorted(switched)]


def switch_set_from_json(records: list, n: Network) -> SwitchSet:
    by_pair = {e.pair: e for e in n.edges}
    return frozenset(_edge_in(rec, f"outcome.switched[{i}]", by_pair) for i, rec in enumerate(records))


def msf_outcome_to_json(out: MsfOutcome) -> dict:
    return {
        "problem": "msf",
        "value": rat_str(out.value),
        "switched": _switch_set_out(out.switched),
        "solution": solution_to_json(out.solution),
    }


def msf_outcome_from_json(data: dict, n: Network) -> MsfOutcome:
    switched = switch_set_from_json(_get(data, "switched", "outcome", list), n)
    sub = subnetwork(n, switched)
    return MsfOutcome(
        value=_rat_field(data, "value", "outcome"),
        switched=switched,
        solution=solution_from_json(_get(data, "solution", "outcome"), sub),
    )


def mff_outcome_to_json(out: MffOutcome) -> dict:
    return {
        "problem": "mff",
        "value": rat_str(out.value),
        "assignment": _edge_map_out(out.assignment),
        "certified": out.certified,
        "solution": solution_to_json(out.solution),
    }


def mff_outcome_from_json(data: dict, n: Network) -> MffOutcome:
    assignment: SusAssignment = _edge_map_in(_get(data, "assignment", "outcome", list), "outcome.assignment", n)
    return MffOutcome(
        value=_rat_field(data, "value", "outcome"),
        assignment=assignment,
        certified=_get(data, "certified", "outcome", bool),
        solution=solution_from_json(_get(data, "solution", "outcome"), n),
    )


# --- problem instances --------------------------------------------------------


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_in(value: Any, where: str) -> int:
    """An int, or a string of ASCII digits with an optional sign; `int` alone would also take underscores and other digits."""
    if isinstance(value, int) and not isinstance(value, bool) or isinstance(value, str) and _INTEGER.fullmatch(value.strip()):
        return int(value)
    raise ValueError(f"{where} must be an integer (int, or string of ASCII digits with an optional sign), got {value!r}")


def subset_sum_from_json(data: dict) -> SubsetSumInstance:
    """The instance a document describes; an M or w entry that is not an int or a string of ASCII digits raises a ValueError naming the field."""
    values = tuple(_int_in(x, f"instance.M[{i}]") for i, x in enumerate(_get(data, "M", "instance", list)))
    return SubsetSumInstance(values=values, target=_int_in(_get(data, "w", "instance"), "instance.w"))


def subset_sum_to_json(inst: SubsetSumInstance) -> dict:
    return {"M": list(inst.values), "w": inst.target}


def _names(values: Any, where: str) -> tuple[str, ...]:
    """A list of string names, or a ValueError naming the first entry that is not one."""
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list, got {type(values).__name__}")
    for i, x in enumerate(values):
        if not isinstance(x, str):
            raise ValueError(f"{where}[{i}] must be a string name, got {x!r}")
    return tuple(values)


def exact_cover_from_json(data: dict) -> ExactCover3Instance:
    """The instance a document describes; a name that is not a string raises a ValueError naming the field."""
    return ExactCover3Instance(
        universe=_names(_get(data, "M", "instance"), "instance.M"),
        sets=tuple(_names(xs, f"instance.S[{i}]") for i, xs in enumerate(_get(data, "S", "instance", list))),
    )


def exact_cover_to_json(inst: ExactCover3Instance) -> dict:
    return {"M": list(inst.universe), "S": [list(xs) for xs in inst.sets]}


def hamiltonian_from_json(data: dict) -> HamiltonianInstance:
    """The instance a document describes; an edge that is not a pair of string names raises a ValueError naming it."""
    edges = []
    for i, uv in enumerate(_get(data, "edges", "instance", list)):
        edge = _names(uv, f"instance.edges[{i}]")
        if len(edge) != 2:
            raise ValueError(f"instance.edges[{i}] must list 2 nodes, got {len(edge)}")
        edges.append(edge)
    return HamiltonianInstance(
        nodes=_names(_get(data, "nodes", "instance"), "instance.nodes"),
        edges=tuple(edges),
        a=_get(data, "a", "instance", str),
        b=_get(data, "b", "instance", str),
    )


def hamiltonian_to_json(inst: HamiltonianInstance) -> dict:
    return {"nodes": list(inst.nodes), "edges": [list(e) for e in inst.edges], "a": inst.a, "b": inst.b}


def encoded_to_json(enc: EncodedInstance) -> dict:
    return {
        "kind": enc.kind,
        "network": network_to_json(enc.network),
        "predicted_value": rat_str(enc.predicted_value),
    }


# --- files ---------------------------------------------------------------------


def dump(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
