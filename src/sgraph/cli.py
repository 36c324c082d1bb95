"""Command-line interface: generation, products, balance and dimension
queries, switching, table witnesses, claim verification, and DOT export.

Exit codes: 0 success, 1 computation failure (e.g. dimension cap exceeded or
a failed claim), 2 input error. A standard output closed by its reader ends
the run quietly with exit 1, Python's own code for a broken pipe. Any other
exception is a fault in sgraph and propagates.
"""

import argparse
import functools
import json
import os
import sys

from .bdim import (
    BdimCapExceededError,
    InvalidSwitchingError,
    OracleGuardError,
    apply_k_switching,
    bdim_oracle,
    bdim_search,
    is_k_positive,
)
from .core import (
    GraphError,
    all_negative_complete,
    all_positive_complete,
    antibalanced_complete,
    is_antibalanced,
    is_balanced,
    null_graph,
    path_graph,
    unbalanced_cycle,
)
from .documents import DocumentError, GraphDocument, WitnessDocument, to_dot
from .products import PRODUCT_KINDS, pair_labels, product
from .tables import TableParameterError, table_witness
from .verify import UnknownClaimError, format_report, report_record, run_claims

FAMILIES = {
    "all-positive-complete": all_positive_complete,
    "all-negative-complete": all_negative_complete,
    "antibalanced-complete": antibalanced_complete,
    "unbalanced-cycle": unbalanced_cycle,
    "path-all-positive": path_graph,
    "null-graph": null_graph,
}

CLI_PRODUCTS = {kind.replace("_", "-"): kind for kind in PRODUCT_KINDS}


class InputError(ValueError):
    """Bad command-line input that argparse cannot catch."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write a document to a file, ending it with a newline as printing does."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: str) -> GraphDocument:
    return GraphDocument.from_json(_read_text(path))


def _cmd_gen(args) -> int:
    builder = FAMILIES.get(args.family)
    if builder is None:
        raise InputError(
            f"unknown family {args.family!r}; choose from {', '.join(sorted(FAMILIES))}"
        )
    if args.order < 1:
        raise InputError(f"{args.family} needs order >= 1, got {args.order}")
    graph = builder(args.order)
    doc = GraphDocument(graph, name=f"{args.family}-{args.order}")
    print(doc.to_json())
    return 0


def _cmd_balance(args) -> int:
    doc = _load_graph(args.file)
    balanced, witness = is_balanced(doc.graph)
    print(f"balanced: {'true' if balanced else 'false'}")
    print(f"antibalanced: {'true' if is_antibalanced(doc.graph) else 'false'}")
    if witness is not None:
        print(f"witness: {json.dumps(list(witness))}")
    return 0


def _cmd_bdim(args) -> int:
    doc = _load_graph(args.file)
    if args.max_k is not None and args.max_k < 1:
        raise InputError(f"--max-k must be >= 1, got {args.max_k}")
    try:
        result = bdim_search(doc.graph, max_k=args.max_k)
    except BdimCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"bdim = {result.dimension}")
    if args.witness:
        _write_text(args.witness, WitnessDocument(result.witness).to_json())
    if args.oracle:
        check = bdim_oracle(doc.graph, max_k=args.max_k)
        if check != result.dimension:
            print(
                f"error: oracle disagrees: search={result.dimension} oracle={check}",
                file=sys.stderr,
            )
            return 1
        print(f"oracle = {check} (agrees)")
    return 0


def _cmd_product(args) -> int:
    kind = CLI_PRODUCTS.get(args.kind)
    if kind is None:
        raise InputError(
            f"unknown product kind {args.kind!r}; choose from {', '.join(sorted(CLI_PRODUCTS))}"
        )
    d1, d2 = _load_graph(args.file1), _load_graph(args.file2)
    graph = product(kind, d1.graph, d2.graph)
    name = f"{args.kind}({d1.name or 'a'},{d2.name or 'b'})"
    doc = GraphDocument(graph, name=name, vertex_labels=pair_labels(d1.graph.n, d2.graph.n))
    print(doc.to_json())
    return 0


def _cmd_switch(args) -> int:
    doc = _load_graph(args.file)
    witness = WitnessDocument.from_json(_read_text(args.witness))
    switched = apply_k_switching(doc.graph, witness.switching)
    print(GraphDocument(switched, name=doc.name, vertex_labels=doc.vertex_labels).to_json())
    return 0


def _cmd_witness_table(args) -> int:
    witness = table_witness(args.table_id, args.m, args.n)
    family = all_negative_complete if args.table_id == 5 else unbalanced_cycle
    target = product("cartesian", family(args.m), family(args.n))
    print(WitnessDocument(witness).to_json())
    positive = is_k_positive(target, witness)
    print(
        f"k-positive: {'true' if positive else 'false'} (k = {witness.k})",
        file=sys.stderr,
    )
    return 0 if positive else 1


def _cmd_verify(args) -> int:
    selection = "all"
    if args.claims != "all":
        selection = [cid.strip() for cid in args.claims.split(",") if cid.strip()]
    if args.trials is not None and args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    reports = run_claims(selection, seed=args.seed, trials=args.trials)
    for report in reports:
        print(format_report(report))
    if args.json:
        _write_text(args.json, json.dumps([report_record(r) for r in reports], indent=1))
    failed = [r for r in reports if r.status == "fail"]
    print(f"{len(reports) - len(failed)}/{len(reports)} claims passed")
    return 1 if failed else 0


def _cmd_export_dot(args) -> int:
    print(to_dot(_load_graph(args.file)), end="")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgraph",
        description="Signed-graph products, switching, and balancing dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family as a graph document")
    p.add_argument("family", help=f"one of: {', '.join(sorted(FAMILIES))}")
    p.add_argument("order", type=int)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("balance", help="balance/antibalance flags and witness")
    p.add_argument("file", help="graph document path, or - for stdin")
    p.set_defaults(handler=_cmd_balance)

    p = sub.add_parser("bdim", help="exact balancing dimension")
    p.add_argument("file", help="graph document path, or - for stdin")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--witness", help="write the witness document here")
    p.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    p.set_defaults(handler=_cmd_bdim)

    p = sub.add_parser("product", help="construct a product of two graphs")
    p.add_argument("kind", help=f"one of: {', '.join(sorted(CLI_PRODUCTS))}")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("switch", help="apply a witness document to a graph")
    p.add_argument("file")
    p.add_argument("witness")
    p.set_defaults(handler=_cmd_switch)

    p = sub.add_parser("witness-table", help="emit a tabulated witness and confirm it")
    p.add_argument("table_id", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_witness_table)

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("--claims", default="all", help="comma-separated ids, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None, help="trial count per claim, 0 skips; "
                   "only C1, C4, C8, C11, C12, C13, C14, C16, C17 and C18 size their instances by it")
    p.add_argument("--json", help="also write machine-readable records here")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export-dot", help="DOT output, solid=positive dashed=negative")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # inside the try: a closed pipe may show only here
        return code
    except BrokenPipeError:  # devnull takes the unwritable buffer's flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        InputError,
        DocumentError,
        GraphError,
        InvalidSwitchingError,
        TableParameterError,
        UnknownClaimError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BdimCapExceededError, OracleGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
