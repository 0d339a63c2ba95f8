"""JSON formats for networks, solutions, outcomes and problem instances.

Rationals serialize as strings -- "p/q", an integer, or a finite decimal
-- and parse back exactly; floats are rejected.  Edge-keyed maps
serialize as arrays of {"a", "b", ...} records in canonical edge order,
node-keyed maps as plain objects, so files are deterministic and
round-trip byte-for-byte.

An outcome document is {"problem": "mpf" | "msf" | "mff", "value",
"solution"} plus the MSF switch set (`switched`) or the MFF susceptance
assignment (`assignment`).  The `*_outcome_to_json` functions write one,
and `outcome_from_json` reads any of them; a reader ignores the keys it
does not ask for.  The edge maps (a solution's `flow` and
`susceptance`, an MFF outcome's `assignment`) and the switch set are
read by one reader of edge-record lists (`_edge_records`): it finds
each record's edge by its node pair in the network's view (the root's
edge index, `network._View`), refuses a pair the network does not keep
and an edge that an earlier record named; an edge map then reads each
record's `value` as it comes.  An MSF outcome's solution is read against
`subnetwork(n, switched)`, so a record naming a switched edge names no
edge of it.  A reader that takes a network refuses an n that is not a
`Network` with `InvalidNetwork` before it reads the document.

Each top-level reader (`network_from_json`, `solution_from_json` and the
outcome readers) parses each distinct rational string of its document
once: a dict made for that call maps the strings it has read to their
values.  No cache outlives the call.

Writers format each rational with `str`, which gives the text `rat_str`
does, and order an edge map by `edge_key`.  Readers read each record
once, field by field in a fixed order, and raise a ValueError naming the
first field they refuse (`edges[3].cap`); they take a subclass of
`dict`, `str` or `int` as its base type.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterator

from .mff import MffOutcome, SusAssignment
from .mpf import MpfOutcome
from .msf import MsfOutcome
from .network import Edge, Network, NodeRole, Solution, SwitchSet, _require_network, edge_key, subnetwork
from .rational import Rational, rat
from .reductions import (
    EncodedInstance,
    ExactCover3Instance,
    HamiltonianInstance,
    SubsetSumInstance,
)


# --- networks ---------------------------------------------------------------

_ROLE_NAME = {role: role.value for role in NodeRole}
_ROLE_OF = {role.value: role for role in NodeRole}


def network_to_json(n: Network) -> dict:
    return {
        "nodes": [{"id": name, "role": _ROLE_NAME[role]} for name, role in n.nodes],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "s_min": str(e.s_min),
                "s_max": str(e.s_max),
                "cap": str(e.cap),
            }
            for e in n.edges
        ],
    }


# a field path: a str, or a (list path, index) pair for an entry of a list
Where = str | tuple[str, int]


def _at(where: Where) -> str:
    """The path as a message writes it, such as `edges[3]`: formatted only when a reader raises."""
    return where if isinstance(where, str) else f"{where[0]}[{where[1]}]"


def _get(record: Any, key: str, where: Where, kind: type = object) -> Any:
    """record[key], or a ValueError naming the field when the record lacks it or it is not a `kind`."""
    if not isinstance(record, dict):
        raise ValueError(f"{_at(where)} must be an object, got {type(record).__name__}")
    if key not in record:
        raise ValueError(f"{_at(where)} has no field {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise ValueError(f"{_at(where)}.{key} must be a {kind.__name__}, got {type(value).__name__}")
    return value


# the strings one document has parsed so far, and their values
Seen = dict[str, Rational]


def _rat(value: Any, where: Where, key: str, seen: Seen) -> Rational:
    """The field `where.key`, which holds `value`, as an exact rational (a string or an int), or a ValueError naming it."""
    if isinstance(value, str):
        r = seen.get(value)
        if r is not None:
            return r
    try:
        if isinstance(value, bool) or isinstance(value, float):
            raise ValueError(f"expected an exact rational (string or int), got {value!r}")
        r = rat(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{_at(where)}.{key}: {exc}") from None
    if isinstance(value, str):
        seen[value] = r
    return r


def _rat_field(record: Any, key: str, where: Where, seen: Seen) -> Rational:
    """record[key] as an exact rational (a string or an int), or a ValueError naming the field."""
    value = record[key] if isinstance(record, dict) and key in record else _get(record, key, where)  # _get raises the error
    return _rat(value, where, key, seen)


def network_from_json(data: dict) -> Network:
    """The network a document describes; a document of the wrong shape raises a ValueError naming the field."""
    nodes = []
    for i, nd in enumerate(_get(data, "nodes", "network", list)):
        where = ("nodes", i)
        name, raw = _get(nd, "id", where, str), _get(nd, "role", where)
        role = _ROLE_OF.get(raw) if isinstance(raw, str) else None
        if role is None:
            raise ValueError(f"{_at(where)}.role must be one of {', '.join(_ROLE_OF)}, got {raw!r}")
        nodes.append((name, role))
    edges, seen = [], {}
    for i, ed in enumerate(_get(data, "edges", "network", list)):
        where = ("edges", i)
        a, b = _get(ed, "a", where, str), _get(ed, "b", where, str)
        edges.append(Edge(a, b, _rat_field(ed, "s_min", where, seen), _rat_field(ed, "s_max", where, seen), _rat_field(ed, "cap", where, seen)))
    return Network(nodes, edges)


# --- solutions and outcomes --------------------------------------------------


def _edge_map_out(mapping) -> list[dict]:
    # sorted by key tuple, the order of `edge_key`; distinct edges have distinct key tuples
    return [
        {"a": key[0], "b": key[1], "value": str(v)}
        for key, v in sorted(zip(map(edge_key, mapping), mapping.values()))
    ]


def _node_map_out(mapping) -> dict:
    return {v: str(x) for v, x in sorted(mapping.items())}


def _edge_records(records: list, where: str, n: Network) -> Iterator[tuple[Edge, Any]]:
    """Each record's edge of n, found by its pair in n's view, with the record, in record order.

    A record that names no edge n keeps, or one an earlier record named
    (a bit already in the mask `named`), raises a ValueError.  The loop
    stops at the first error, so a caller that reads each record as it
    comes raises errors in record order.
    """
    pairs, edges, kept, named = n._view.pairs, n._view.edges, n._kept, 0
    for i, rec in enumerate(records):
        at = (where, i)
        a, b = _get(rec, "a", at, str), _get(rec, "b", at, str)
        pair = (a, b) if a <= b else (b, a)
        j = pairs.get(pair)
        if j is None or not kept >> j & 1:
            raise ValueError(f"{_at(at)}: no edge {pair[0]}--{pair[1]} in the network")
        if named >> j & 1:
            raise ValueError(f"{_at(at)}: edge {edges[j].a}--{edges[j].b} listed twice")
        named |= 1 << j
        yield edges[j], rec


def _edge_map_in(records: list, where: str, n: Network, seen: Seen) -> dict[Edge, Rational]:
    """The map the records give, each record's edge to its `value`."""
    return {e: _rat_field(rec, "value", (where, i), seen) for i, (e, rec) in enumerate(_edge_records(records, where, n))}


def solution_to_json(sol: Solution) -> dict:
    return {
        "susceptance": _edge_map_out(sol.susceptance),
        "flow": _edge_map_out(sol.flow),
        "angle": _node_map_out(sol.angle),
        "gen": _node_map_out(sol.gen),
        "load": _node_map_out(sol.load),
    }


def _node_map_in(data: dict, key: str, seen: Seen) -> dict:
    where = f"solution.{key}"
    return {v: _rat(x, where, v, seen) for v, x in _get(data, key, "solution", dict).items()}


def _solution_in(data: dict, n: Network, seen: Seen) -> Solution:
    return Solution(
        susceptance=_edge_map_in(_get(data, "susceptance", "solution", list), "solution.susceptance", n, seen),
        flow=_edge_map_in(_get(data, "flow", "solution", list), "solution.flow", n, seen),
        angle=_node_map_in(data, "angle", seen),
        gen=_node_map_in(data, "gen", seen),
        load=_node_map_in(data, "load", seen),
    )


def solution_from_json(data: dict, n: Network) -> Solution:
    """Rebuild a solution against the network its maps refer to."""
    _require_network(n)
    return _solution_in(data, n, {})


def mpf_outcome_to_json(out: MpfOutcome) -> dict:
    return {"problem": "mpf", "value": str(out.value), "solution": solution_to_json(out.solution)}


def mpf_outcome_from_json(data: dict, n: Network) -> MpfOutcome:
    _require_network(n)
    seen: Seen = {}
    return MpfOutcome(_rat_field(data, "value", "outcome", seen), _solution_in(_get(data, "solution", "outcome"), n, seen))


def _switch_set_out(switched: SwitchSet) -> list[dict]:
    return [{"a": e.a, "b": e.b} for e in sorted(switched, key=edge_key)]


def _switch_set_in(records: list, n: Network) -> SwitchSet:
    """The set of the edges the records name."""
    return frozenset(e for e, _ in _edge_records(records, "outcome.switched", n))


def msf_outcome_to_json(out: MsfOutcome) -> dict:
    return {
        "problem": "msf",
        "value": str(out.value),
        "switched": _switch_set_out(out.switched),
        "solution": solution_to_json(out.solution),
    }


def msf_outcome_from_json(data: dict, n: Network) -> MsfOutcome:
    _require_network(n)
    seen: Seen = {}
    switched = _switch_set_in(_get(data, "switched", "outcome", list), n)
    return MsfOutcome(
        value=_rat_field(data, "value", "outcome", seen),
        switched=switched,
        solution=_solution_in(_get(data, "solution", "outcome"), subnetwork(n, switched), seen),  # the solution lives on the sub-network
    )


def mff_outcome_to_json(out: MffOutcome) -> dict:
    return {
        "problem": "mff",
        "value": str(out.value),
        "assignment": _edge_map_out(out.assignment),
        "solution": solution_to_json(out.solution),
    }


def mff_outcome_from_json(data: dict, n: Network) -> MffOutcome:
    _require_network(n)
    seen: Seen = {}
    assignment: SusAssignment = _edge_map_in(_get(data, "assignment", "outcome", list), "outcome.assignment", n, seen)
    return MffOutcome(
        value=_rat_field(data, "value", "outcome", seen),
        assignment=assignment,
        solution=_solution_in(_get(data, "solution", "outcome"), n, seen),
    )


_OUTCOMES = {"mpf": mpf_outcome_from_json, "msf": msf_outcome_from_json, "mff": mff_outcome_from_json}


def outcome_from_json(data: dict, n: Network) -> MpfOutcome | MsfOutcome | MffOutcome:
    """The outcome a document describes, read by its `problem`; any other `problem` raises a ValueError naming the field."""
    _require_network(n)
    problem = _get(data, "problem", "outcome", str)
    if problem not in _OUTCOMES:
        raise ValueError(f"outcome.problem must be one of {', '.join(_OUTCOMES)}, got {problem!r}")
    return _OUTCOMES[problem](data, n)


# --- problem instances --------------------------------------------------------


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_in(value: Any, where: str) -> int:
    """An int, or a string of ASCII digits with an optional sign; `int` alone would also take underscores and other digits."""
    if isinstance(value, int) and not isinstance(value, bool) or isinstance(value, str) and _INTEGER.fullmatch(value.strip()):
        return int(value)
    raise ValueError(f"{where} must be an integer (int, or string of ASCII digits with an optional sign), got {value!r}")


def subset_sum_from_json(data: dict) -> SubsetSumInstance:
    """The instance a document describes; an M or w entry that is not an int or a string of ASCII digits raises a ValueError naming the field.

    The instance is built here, so an instance it refuses (a repeated value, one below 1) raises `InvalidInstance`.
    """
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
    """The instance a document describes; a name that is not a string raises a ValueError naming the field.

    The instance is built here, so an instance it refuses (a repeated element, a set that is not three of them) raises `InvalidInstance`.
    """
    return ExactCover3Instance(
        universe=_names(_get(data, "M", "instance"), "instance.M"),
        sets=tuple(_names(xs, f"instance.S[{i}]") for i, xs in enumerate(_get(data, "S", "instance", list))),
    )


def exact_cover_to_json(inst: ExactCover3Instance) -> dict:
    return {"M": list(inst.universe), "S": [list(xs) for xs in inst.sets]}


def hamiltonian_from_json(data: dict) -> HamiltonianInstance:
    """The instance a document describes; an edge that is not a pair of string names raises a ValueError naming it.

    The instance is built here, so an instance it refuses (a repeated node, an edge to an undeclared one) raises `InvalidInstance`.
    """
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
        "predicted_value": str(enc.predicted_value),
    }


# --- files ---------------------------------------------------------------------


def dumps(data: dict) -> str:
    """The document as the text every writer here gives it: indented, keys sorted, one final newline."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def dump(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(data))


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
