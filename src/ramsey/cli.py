"""Command-line surface: exact Ramsey numbers, arrowing decisions, bound
sweeps, graph enumeration and witness validation.

Exit codes: 0 success, 1 theorem violation / invalid witness, 2 usage
error (an output file that cannot be opened is one), 3 budget exceeded.
Runs are bit-reproducible for identical flags; --jobs only partitions the
search tree.  With --jobs above 1 each searched order n forks --jobs - 1
helper processes, which search their fixed share of its subtrees while
this process searches its own, and which are killed once that order is
decided.  So --jobs above 1 needs os.fork; where it is missing, the
command exits 2 before any search.  --budget is a number of seconds: one
deadline per order n, shared by all of that order's subtrees whatever
--jobs is.

A Ramsey number with a matching mK2 on either side (ramsey, verify) is
decided by structure, from the edge-maximal mK2-free graphs: no search, no
helper, and --budget does not apply.  Its witness is the first coloring of
that walk, not the search's lex-greatest, and the same for any --jobs.
The arrows command always searches.

verify --resume continues the sweep in its --json file.  Each line must be
one whole JSON object, and sweep rebuilds each row from its graph, k, exact
and runtime and refuses a row it would not write: exit 2 before any search,
with the file left as it was; so does a footer on any line but the last.
A row with slack < 0 exits 1, a resumed one before any search.  The first
write replaces the footer on the last line, so the file ends with one.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import re
import sys

from ramsey.arrowing import (
    BudgetExceededError,
    SearchCapError,
    arrows,
    coloring_from_text,
    coloring_to_text,
    ramsey_number_with_witness,
    verify_coloring,
)
from ramsey.bounds import THEOREMS, SweepViolationError, sweep, sweep_params
from ramsey.enumeration import EnumFilter, enumerate_graphs
from ramsey.families import graph_from_name
from ramsey.graphs import MAX_VERTICES, embeds, graph6_encode

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9,]+", "_", name).strip("_")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramsey",
        description="Exact small Ramsey numbers by exhaustive 2-coloring search.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_patterns(p):
        p.add_argument("--red", required=True, metavar="NAME", help="pattern forbidden in red (F)")
        p.add_argument("--blue", required=True, metavar="NAME",
                       help="pattern forbidden in blue (G)")

    def add_common(p):
        p.add_argument("--budget", type=_positive_float, default=None,
                       help="time budget in seconds (default: unlimited)")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="processes per searched order n; above 1, the search forks "
                            "JOBS - 1 helpers for each such order, which needs os.fork")

    p = sub.add_parser("ramsey", help="compute r(F,G) and write the (r-1)-witness")
    p.set_defaults(run=_cmd_ramsey)
    add_patterns(p)
    p.add_argument("--max-n", type=int, default=MAX_VERTICES, help="give up beyond this order")
    p.add_argument("--witness", metavar="FILE", default=None,
                   help="where to write the (r-1)-witness (default: derived from the names)")
    add_common(p)

    p = sub.add_parser("arrows", help="decide K_n -> (F,G)")
    p.set_defaults(run=_cmd_arrows)
    p.add_argument("--n", type=int, required=True, help="order of the complete graph to colour")
    add_patterns(p)
    p.add_argument("--witness", metavar="FILE", default=None,
                   help="write the good coloring here when one exists")
    add_common(p)

    p = sub.add_parser("verify", help="sweep a bound over enumerated graphs")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--q-max", type=int, default=None, help="largest edge count to sweep")
    p.add_argument("--k", type=int, default=None, help="k of K_{2,k} (l31/l32/t3)")
    p.add_argument("--json", metavar="FILE", default=None, help="also write JSON lines here")
    p.add_argument("--resume", action="store_true",
                   help="continue the sweep in the --json file: each row there is rebuilt and "
                        "must equal it, only graphs without a row are searched, and a footer "
                        "on the last line is replaced")
    add_common(p)

    p = sub.add_parser("enumerate", help="list non-isomorphic graphs with q edges")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--edges", type=int, required=True, metavar="Q", help="number of edges")
    p.add_argument("--connected", action="store_true", help="list connected graphs only")
    p.add_argument("--allow-isolated", action="store_true", help="pad with isolated vertices too")
    p.add_argument("--max-vertices", type=int, default=None, help="largest order (default: 2Q)")

    p = sub.add_parser("witness-check", help="validate a witness file against the patterns")
    p.set_defaults(run=_cmd_witness_check)
    p.add_argument("--file", required=True, help="the witness file, as ramsey and arrows write it")
    add_patterns(p)

    return ap


def _cmd_ramsey(args) -> int:
    F = graph_from_name(args.red)
    G = graph_from_name(args.blue)
    r, witness = ramsey_number_with_witness(
        F, G, n_max=args.max_n, budget=args.budget, jobs=args.jobs)
    print(r)
    if witness is not None:
        path = args.witness or f"{_slug(args.red)}_{_slug(args.blue)}.witness"
        with open(path, "w") as fp:
            fp.write(coloring_to_text(witness))
        print(f"witness for n={r - 1} written to {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_arrows(args) -> int:
    F = graph_from_name(args.red)
    G = graph_from_name(args.blue)
    out = arrows(args.n, F, G, budget=args.budget, jobs=args.jobs)
    if out.arrows:
        print("ARROWS")
    else:
        print("GOOD COLORING EXISTS")
        if args.witness:
            with open(args.witness, "w") as fp:
                fp.write(coloring_to_text(out.witness))
            print(f"witness written to {args.witness}", file=sys.stderr)
    return EXIT_OK


def _resumed_rows(path: str, theorem: str) -> tuple[dict[str, dict], int | None]:
    """The rows of earlier runs of the same sweep in a --json file, by
    graph6, and the byte offset of a footer on its last line, or None.

    A line that is not one whole JSON object, newline included, is refused,
    so a row cut by a killed run is not glued onto the next one.  sweep
    checks each row's fields, its theorem and k included.
    """
    rows, footer = {}, None
    with open(path, "rb") as fp:
        for number, line in enumerate(fp, 1):
            where = f"{path} line {number}"
            if footer is not None:  # older runs left footers between rows
                raise ValueError(f"{path} line {number - 1} is a footer but not the last line")
            try:
                row = json.loads(line) if line.endswith(b"\n") else None
            except ValueError:  # UnicodeDecodeError included
                row = None
            if not isinstance(row, dict):
                raise ValueError(f"{where} is not one whole JSON object")
            footer = fp.tell() - len(line) if "summary" in row else None
            try:
                if footer is not None:
                    found = row["summary"]["theorem"]
                    if found != theorem:
                        raise ValueError(f"{path} holds a {found} sweep, not {theorem}")
                elif row["graph"]["g6"] in rows:
                    raise ValueError(f"{where}: graph {row['graph']['g6']!r} has an earlier row")
                else:
                    rows[row["graph"]["g6"]] = row
            except (KeyError, TypeError) as e:  # a field missing, or not hashable
                text = line.decode(errors="replace").strip()
                raise ValueError(f"bad report line, {where}: {text}") from e
    return rows, footer


def _cmd_verify(args) -> int:
    # check the arguments before the --json file is opened, and emptied
    k = sweep_params(args.theorem, args.q_max, args.k, args.jobs)[3]
    if args.resume and not args.json:
        raise ValueError("--resume needs --json FILE, the file to resume from")
    resumed, footer_at = {}, None
    if args.resume and os.path.exists(args.json):
        resumed, footer_at = _resumed_rows(args.json, args.theorem)
    sink = open(args.json, "a" if args.resume else "w") if args.json else None

    def emit(row):
        nonlocal footer_at
        line = json.dumps(row)
        print(line)
        if sink:
            if footer_at is not None:  # the old footer gives way to this run's lines
                sink.truncate(footer_at)
                footer_at = None
            sink.write(line + "\n")
            sink.flush()

    try:
        result = sweep(args.theorem, q_max=args.q_max, k=k, budget=args.budget, jobs=args.jobs,
                       on_report=lambda report: emit(report.to_json()), resumed=resumed)
        emit(result.summary_json())
    except SweepViolationError as e:
        print(f"VIOLATION: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        if sink:
            sink.close()
    if result.incomplete:
        counts = collections.Counter(reason for _, reason in result.incomplete)
        print("incomplete: " + ", ".join(f"{n} graph(s) {reason}" for reason, n in counts.items()),
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    f = EnumFilter(q=args.edges,
                   require_isolate_free=not args.allow_isolated,
                   require_connected=args.connected,
                   max_vertices=args.max_vertices)
    for g in enumerate_graphs(f):
        print(graph6_encode(g))
    return EXIT_OK


def _cmd_witness_check(args) -> int:
    F = graph_from_name(args.red)
    G = graph_from_name(args.blue)
    try:
        with open(args.file) as fp:
            red = coloring_from_text(fp.read())
    except (OSError, ValueError) as e:
        print(f"INVALID: {e}")
        return EXIT_VIOLATION
    if verify_coloring(red, F, G):
        print("VALID")
        return EXIT_OK
    # verify_coloring does not say which colour failed; ask red again
    if embeds(F, red):
        print(f"INVALID: red {args.red}")
    else:
        print(f"INVALID: blue {args.blue}")
    return EXIT_VIOLATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as e:
        print(f"budget exceeded after {e.nodes} nodes", file=sys.stderr)
        return EXIT_BUDGET
    except SearchCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
