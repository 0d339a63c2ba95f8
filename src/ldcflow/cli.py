"""Command-line interface.

Subcommands: solve (mpf | msf | mff), encode, decode, gadget, verify,
classify, export.  Networks, solutions and instances travel as the JSON
documents defined in `serialize`.  Exact values print as "p/q" with a
decimal rendering when it differs.

Exit codes: 0 success (including a NO/UNKNOWN decision), 1 failed
verification, 2 usage error, 3 file or parse error, 4 solver or encoder
precondition error (including a network that fails validation, whose
report goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, serialize
from .errors import LdcError
from .gadgets import Polarity, gfch, gsch
from .mff import MffDecision, decide_mff, solve_mff_grid
from .mpf import solve_mpf
from .msf import decide_msf, export_milp, solve_msf_bnb, solve_msf_exhaustive
from .network import require_valid, subnetwork, total_generation, validate_network, validate_solution
from .rational import format_value, rat, rat_str
from .reductions import (
    KIND_CACTUS_MFF,
    KIND_CACTUS_MSF,
    KIND_EXACT_COVER_MFF,
    KIND_EXACT_COVER_MSF,
    KIND_HAMILTONIAN,
    KIND_TREE,
    decode_exact_cover,
    decode_subset_sum,
    encode_exact_cover_mff,
    encode_exact_cover_msf,
    encode_hamiltonian,
    encode_subset_sum_cactus_mff,
    encode_subset_sum_cactus_msf,
    encode_subset_sum_tree,
)

_ENCODERS = {
    KIND_EXACT_COVER_MFF: (encode_exact_cover_mff, serialize.exact_cover_from_json),
    KIND_EXACT_COVER_MSF: (encode_exact_cover_msf, serialize.exact_cover_from_json),
    KIND_HAMILTONIAN: (encode_hamiltonian, serialize.hamiltonian_from_json),
    KIND_CACTUS_MSF: (encode_subset_sum_cactus_msf, serialize.subset_sum_from_json),
    KIND_CACTUS_MFF: (encode_subset_sum_cactus_mff, serialize.subset_sum_from_json),
    KIND_TREE: (encode_subset_sum_tree, serialize.subset_sum_from_json),
}


# `verify`'s and `decode`'s readers of the outcome documents `solve --out` and `solve mpf --json` write
_OUTCOME_READERS = {"mpf": serialize.mpf_outcome_from_json, "msf": serialize.msf_outcome_from_json, "mff": serialize.mff_outcome_from_json}


def _read_network(path: str):
    return serialize.network_from_json(serialize.load(path))


def _read_valid_network(path: str):
    n = _read_network(path)
    require_valid(n)
    return n


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    n = _read_valid_network(args.network)
    if args.problem == "mpf":
        if args.decide is not None:
            print("YES" if solve_mpf(n).value >= rat(args.decide) else "NO")
            return 0
        out = solve_mpf(n)
        if args.json:
            _emit({"problem": "mpf", "value": rat_str(out.value), "solution": serialize.solution_to_json(out.solution)}, None)
        else:
            print(format_value(out.value))
        if args.out:
            serialize.dump(serialize.solution_to_json(out.solution), args.out)
        return 0
    if args.problem == "msf":
        if args.decide is not None:
            print("YES" if decide_msf(n, rat(args.decide)) else "NO")
            return 0
        out = solve_msf_exhaustive(n) if args.method == "exhaustive" else solve_msf_bnb(n)
        doc = serialize.msf_outcome_to_json(out)
        if args.json:
            _emit(doc, None)
        else:
            print(format_value(out.value))
            print("switched: " + (", ".join(f"{e.a}--{e.b}" for e in sorted(out.switched)) or "(none)"))
        if args.out:
            serialize.dump(doc, args.out)
        return 0
    # mff
    if args.decide is not None:
        decision = decide_mff(n, rat(args.decide), k=args.grid)
        print("YES" if decision is MffDecision.YES else "UNKNOWN")
        return 0
    out = solve_mff_grid(n, args.grid)
    doc = serialize.mff_outcome_to_json(out)
    if args.json:
        _emit(doc, None)
    else:
        certainty = "exact (no FACTS edges)" if out.certified else "lower bound (search over sampled susceptances)"
        print(format_value(out.value))
        print(f"status: {certainty}")
        for e, v in sorted(out.assignment.items()):
            print(f"susceptance {e.a}--{e.b} = {rat_str(v)}")
    if args.out:
        serialize.dump(doc, args.out)
    return 0


def _cmd_encode(args) -> int:
    encoder, parse = _ENCODERS[args.kind]
    enc = encoder(parse(serialize.load(args.instance)))
    _emit(serialize.encoded_to_json(enc), args.out)
    return 0


def _cmd_decode(args) -> int:
    encoder, parse = _ENCODERS[args.kind]
    inst = parse(serialize.load(args.instance))
    n = encoder(inst).network
    doc = serialize.load(args.outcome)
    problem = doc.get("problem") if isinstance(doc, dict) else None
    if problem not in ("msf", "mff"):
        raise ValueError("outcome file must come from `solve msf --out` or `solve mff --out`")
    outcome = _OUTCOME_READERS[problem](doc, n)
    if args.kind in (KIND_EXACT_COVER_MFF, KIND_EXACT_COVER_MSF):
        cover = decode_exact_cover(outcome, inst)
        _emit({"cover": [list(x) for x in cover]}, None)
    else:
        chosen = decode_subset_sum(outcome, inst, args.kind)
        _emit({"V": sorted(chosen)}, None)
    return 0


def _cmd_gadget(args) -> int:
    build = gsch if args.gadget == "gsch" else gfch
    net = build(rat(args.x), port=args.port, polarity=Polarity(args.polarity), prefix=args.prefix)
    _emit(serialize.network_to_json(net), args.out)
    return 0


def _cmd_verify(args) -> int:
    n = _read_network(args.network)
    report = validate_network(n)
    if not report.ok:
        print(report)
        return 1
    doc = serialize.load(args.solution)
    problem = doc.get("problem") if isinstance(doc, dict) else None
    target, claims = n, []  # claims: what an outcome document says that its solution belies
    if problem in _OUTCOME_READERS:
        outcome = _OUTCOME_READERS[problem](doc, n)
        sol, total = outcome.solution, total_generation(outcome.solution)
        if outcome.value != total:
            claims.append(f"value {rat_str(outcome.value)} is not the solution's total generation {rat_str(total)}")
        if problem == "msf":
            target = subnetwork(n, outcome.switched)
        elif problem == "mff":
            if set(outcome.assignment) != set(n.facts_edges):
                claims.append("the assignment does not name exactly the network's FACTS edges")
            claims += [f"assignment {e.a}--{e.b} = {rat_str(x)} is not the solution's susceptance" for e, x in outcome.assignment.items() if sol.susceptance.get(e) != x]
            if outcome.certified and n.facts_edges:
                claims.append("certified, but the network has FACTS edges")
    else:
        sol = serialize.solution_from_json(doc, n)
    report = validate_solution(target, sol)
    if report.ok and not claims:
        print("OK")
        return 0
    print("\n".join(([] if report.ok else [str(report)]) + claims))
    return 1


def _cmd_classify(args) -> int:
    n = _read_valid_network(args.network)
    facts = {
        "tree": classify.is_tree(n),
        "cactus": classify.is_cactus(n),
        "max_degree": classify.max_degree(n),
        "connected": classify.is_connected(n),
    }
    if args.json:
        _emit(facts, None)
    else:
        for key, value in facts.items():
            print(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")
    return 0


def _cmd_export(args) -> int:
    n = _read_valid_network(args.network)
    text = export_milp(n)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ldcflow", description="Exact reconfiguration analysis of linear-DC power networks.")
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve mpf/msf/mff for a network JSON file")
    solve.add_argument("problem", choices=["mpf", "msf", "mff"])
    solve.add_argument("network")
    solve.add_argument("--out", help="write the solution/outcome JSON here")
    solve.add_argument("--decide", metavar="X", help="print YES/NO (mpf, msf) or YES/UNKNOWN (mff) for value >= X")
    solve.add_argument("--method", choices=["exhaustive", "bnb"], default="bnb", help="msf search strategy")
    solve.add_argument("--grid", type=_positive_int, default=1, metavar="K", help="mff: search a K-step grid per FACTS edge (default 1: the endpoints)")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    enc = sub.add_parser("encode", help="encode a combinatorial instance as a network")
    enc.add_argument("kind", choices=sorted(_ENCODERS))
    enc.add_argument("instance")
    enc.add_argument("--out")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="extract a certificate from an optimal outcome")
    dec.add_argument("kind", choices=sorted(set(_ENCODERS) - {KIND_HAMILTONIAN}))
    dec.add_argument("instance")
    dec.add_argument("outcome")
    dec.set_defaults(func=_cmd_decode)

    gad = sub.add_parser("gadget", help="emit a choice-gadget network")
    gad.add_argument("gadget", choices=["gsch", "gfch"])
    gad.add_argument("--x", required=True, help="gadget size (positive rational)")
    gad.add_argument("--port", default="v")
    gad.add_argument("--polarity", choices=[p.value for p in Polarity], required=True)
    gad.add_argument("--prefix", default="")
    gad.add_argument("--out")
    gad.set_defaults(func=_cmd_gadget)

    ver = sub.add_parser("verify", help="validate a solution or outcome against a network")
    ver.add_argument("network")
    ver.add_argument("solution")
    ver.set_defaults(func=_cmd_verify)

    cls = sub.add_parser("classify", help="graph-class report for a network")
    cls.add_argument("network")
    cls.add_argument("--json", action="store_true")
    cls.set_defaults(func=_cmd_classify)

    exp = sub.add_parser("export", help="export the switching MILP")
    exp.add_argument("format", choices=["milp"])
    exp.add_argument("network")
    exp.add_argument("--out")
    exp.set_defaults(func=_cmd_export)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
