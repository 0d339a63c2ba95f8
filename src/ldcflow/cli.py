"""Command-line interface.

Subcommands: solve (mpf | msf | mff), encode, decode, gadget, verify,
classify, export.  Networks, solutions, outcomes and instances travel as
the JSON documents defined in `serialize`.  `solve` builds one outcome
document only when `--json` or `--out` asks for it, and writes it to
stdout for `--json` and to the file for `--out`; `verify` and `decode`
read it back, and `verify` also reads a bare solution.  `solve msf
--decide` searches by `--method` as a full solve does.  `solve mff`
reports its value as exact only on a network without FACTS edges.
Exact values print as "p/q" with a decimal rendering when it differs.

Exit codes: 0 success (including a NO/UNKNOWN decision), 1 failed
verification, 2 usage error (including `solve --decide` with `--out` or
`--json`, `--method` on mpf or mff, and `--grid` on mpf or msf), 3 file
or parse error, 4 solver or encoder precondition error (including a
network document that `Network` refuses, whose report goes to stderr,
and an instance document whose instance refuses its fields when
`serialize` builds it, in `encode` and `decode` alike; `verify` prints a
refused network's report to stdout and exits 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, serialize
from .errors import InvalidNetwork, LdcError
from .gadgets import Polarity, gfch, gsch
from .mff import MffDecision, MffOutcome, decide_mff, solve_mff_grid
from .mpf import MpfOutcome, solve_mpf
from .msf import MsfOutcome, decide_msf, export_milp, solve_msf_bnb, solve_msf_exhaustive
from .network import subnetwork, total_generation, validate_solution
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


def _read_network(path: str):
    return serialize.network_from_json(serialize.load(path))


def _write(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    n = _read_network(args.network)
    if args.decide is not None:
        x = rat(args.decide)
        if args.problem == "mpf":
            yes = solve_mpf(n).value >= x
        elif args.problem == "msf":
            yes = solve_msf_exhaustive(n).value >= x if args.method == "exhaustive" else decide_msf(n, x)
        else:
            yes = decide_mff(n, x, k=args.grid or 1) is MffDecision.YES
        print("YES" if yes else "UNKNOWN" if args.problem == "mff" else "NO")
        return 0
    if args.problem == "mpf":
        out, to_json, details = solve_mpf(n), serialize.mpf_outcome_to_json, []
    elif args.problem == "msf":
        out = solve_msf_exhaustive(n) if args.method == "exhaustive" else solve_msf_bnb(n)
        to_json = serialize.msf_outcome_to_json
        details = ["switched: " + (", ".join(f"{e.a}--{e.b}" for e in sorted(out.switched)) or "(none)")]
    else:
        out = solve_mff_grid(n, args.grid or 1)
        to_json = serialize.mff_outcome_to_json
        details = ["status: " + ("lower bound (search over sampled susceptances)" if n.facts_edges else "exact (no FACTS edges)")]
        details += [f"susceptance {e.a}--{e.b} = {rat_str(v)}" for e, v in sorted(out.assignment.items())]
    text = serialize.dumps(to_json(out)) if args.json or args.out else ""
    if args.json:
        _write(text, None)
    else:
        print(format_value(out.value), *details, sep="\n")
    if args.out:
        _write(text, args.out)
    return 0


def _cmd_encode(args) -> int:
    encoder, parse = _ENCODERS[args.kind]
    enc = encoder(parse(serialize.load(args.instance)))
    _write(serialize.dumps(serialize.encoded_to_json(enc)), args.out)
    return 0


def _cmd_decode(args) -> int:
    encoder, parse = _ENCODERS[args.kind]
    inst = parse(serialize.load(args.instance))
    n = encoder(inst).network
    outcome = serialize.outcome_from_json(serialize.load(args.outcome), n)
    if isinstance(outcome, MpfOutcome):
        raise ValueError("outcome file must come from `solve msf --out` or `solve mff --out`")
    if args.kind in (KIND_EXACT_COVER_MFF, KIND_EXACT_COVER_MSF):
        decoded = {"cover": [list(x) for x in decode_exact_cover(outcome, inst)]}
    else:
        decoded = {"V": sorted(decode_subset_sum(outcome, inst, args.kind))}
    _write(serialize.dumps(decoded), None)
    return 0


def _cmd_gadget(args) -> int:
    build = gsch if args.gadget == "gsch" else gfch
    net = build(rat(args.x), port=args.port, polarity=Polarity(args.polarity), prefix=args.prefix)
    _write(serialize.dumps(serialize.network_to_json(net)), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        n = _read_network(args.network)
    except InvalidNetwork as exc:
        print(exc.report)
        return 1
    doc = serialize.load(args.solution)
    target, claims = n, []  # claims: what an outcome document says that its solution belies
    if isinstance(doc, dict) and "problem" in doc:  # an outcome document; anything else is read as a bare solution
        outcome = serialize.outcome_from_json(doc, n)
        sol, total = outcome.solution, total_generation(outcome.solution)
        if outcome.value != total:
            claims.append(f"value {rat_str(outcome.value)} is not the solution's total generation {rat_str(total)}")
        if isinstance(outcome, MsfOutcome):
            target = subnetwork(n, outcome.switched)
        elif isinstance(outcome, MffOutcome):
            if set(outcome.assignment) != set(n.facts_edges):
                claims.append("the assignment does not name exactly the network's FACTS edges")
            claims += [f"assignment {e.a}--{e.b} = {rat_str(x)} is not the solution's susceptance" for e, x in outcome.assignment.items() if sol.susceptance.get(e) != x]
    else:
        sol = serialize.solution_from_json(doc, n)
    report = validate_solution(target, sol)
    if report.ok and not claims:
        print("OK")
        return 0
    print("\n".join(([] if report.ok else [str(report)]) + claims))
    return 1


def _cmd_classify(args) -> int:
    n = _read_network(args.network)
    facts = {
        "tree": classify.is_tree(n),
        "cactus": classify.is_cactus(n),
        "max_degree": classify.max_degree(n),
        "connected": classify.is_connected(n),
    }
    if args.json:
        _write(serialize.dumps(facts), None)
    else:
        for key, value in facts.items():
            print(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")
    return 0


def _cmd_export(args) -> int:
    _write(export_milp(_read_network(args.network)), args.out)
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
    solve.add_argument("--method", choices=["exhaustive", "bnb"], help="msf search strategy (default bnb)")
    solve.add_argument("--grid", type=_positive_int, metavar="K", help="mff: search a K-step grid per FACTS edge (default 1: the endpoints)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        if args.decide is not None and (args.out or args.json):
            # a decision prints only its answer and builds no outcome to write
            parser.error("argument --decide: not allowed with " + " or ".join(o for o, v in (("--out", args.out), ("--json", args.json)) if v))
        for option, value, problem in (("--method", args.method, "msf"), ("--grid", args.grid, "mff")):
            if value is not None and args.problem != problem:
                parser.error(f"argument {option}: not allowed with {args.problem}, only with {problem}")
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
