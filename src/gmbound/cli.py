"""Command line interface.

Subcommands: validate, bound, normalize, oracle (lemma | phi | minf), batch.
Exit codes: 0 ok, 1 invalid graph or inapplicable evaluator, 2 unreadable or
malformed input or a bad cap value, 3 search cap exceeded, 4 oracle
disagreement.  All output is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .bounds import (
    DEFAULT_ASSIGNMENT_CAP,
    TheoremInapplicable,
    best_bound,
    bound_general,
    bound_regular,
    bound_tree,
)
from .graph import DecompositionGraph, GraphFormatError, graph_from_json, graph_to_json, normalize_all, validate
from .oracle import bruteforce_min_f, bruteforce_phi, verify_lemma
from .spanning import DEFAULT_TREE_CAP, CapExceeded, capital_phi

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_DISAGREE = 4


def _load(path: str | Path) -> DecompositionGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return graph_from_json(text)


def _cap(text: str) -> int:
    """A search cap given on the command line: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 0:
            return value
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


@contextmanager
def _all_digits():
    """Lift Python's limit on int-to-string conversion inside the block.

    Python refuses to convert an int of more than 4300 digits to or from a
    string, to keep parsing hostile input cheap.  A bound, or a b after
    normalizing, of an accepted graph can be longer, so the limit is lifted
    while such output is written and graph_from_json keeps it.  The k and h
    of a move never outgrow the parsed entries.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # Pythons without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _print_issues(issues, stream) -> int:
    """Print notes then errors; returns the number of errors."""
    errors = [v for v in issues if v.severity == "error"]
    for v in issues:
        if v.severity == "note":
            print(f"note {v.subject}: {v.message}", file=stream)
    for v in errors:
        print(f"{v.clause} {v.subject}: {v.message}", file=stream)
    return len(errors)


def cmd_validate(args) -> int:
    g = _load(args.file)
    if _print_issues(validate(g), sys.stdout):
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def _report_moves(moves, stream) -> None:
    changed = [mv for mv in moves if mv.k or mv.h]
    if not changed:
        print("all edges already normalized", file=stream)
        return
    for mv in changed:
        print(f"edge {mv.edge_id}: k={mv.k}, h={mv.h}"
              f" (b: source {mv.k:+d}, target {-mv.h:+d})", file=stream)


def _print_report(report, breakdown: bool = False) -> None:
    with _all_digits():
        print(f"theorem: {report.theorem}")
        print(f"bound: {report.total}")
        if breakdown:
            print("breakdown:")
            print(json.dumps(report.to_json_dict(), indent=2))


def cmd_bound(args) -> int:
    g = _load(args.file)
    if args.normalize_first:
        try:
            g, moves = normalize_all(g)
        except ValueError as exc:
            print(f"cannot normalize: {exc}", file=sys.stderr)
            return EXIT_INVALID
        _report_moves(moves, sys.stderr)
    if _print_issues(validate(g), sys.stderr):
        print("graph is not valid; see messages above", file=sys.stderr)
        return EXIT_INVALID

    assignment_cap = DEFAULT_ASSIGNMENT_CAP if args.max_assignments is None else args.max_assignments
    tree_cap = DEFAULT_TREE_CAP if args.max_trees is None else args.max_trees
    try:
        if args.theorem == "regular":
            report = bound_regular(g)
        elif args.theorem == "tree":
            report = bound_tree(g, assignment_cap=assignment_cap)
        elif args.theorem == "general":
            report = bound_general(g, tree_cap=tree_cap, assignment_cap=assignment_cap)
        else:
            report = best_bound(g, tree_cap=tree_cap, assignment_cap=assignment_cap)
    except TheoremInapplicable as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INVALID

    _print_report(report, args.breakdown)
    return EXIT_OK


def cmd_normalize(args) -> int:
    g = _load(args.file)
    try:
        g, moves = normalize_all(g)
    except ValueError as exc:
        print(f"cannot normalize: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _report_moves(moves, sys.stderr)
    with _all_digits():
        sys.stdout.write(graph_to_json(g))
    return EXIT_OK


def cmd_oracle_lemma(args) -> int:
    report = verify_lemma(args.beta_max)
    print(f"checked {report.checked} normalized matrices with 2 <= |beta| <= {report.beta_max}")
    print("special +-H cases: " + ("ok" if report.h_cases_ok else "FAILED"))
    if report.ok:
        print("verified: flip search agrees with cf_sum(|beta|, |delta|) - 1 throughout")
        return EXIT_OK
    for fail in report.failures:
        print(f"counterexample: {fail.matrix} formula={fail.formula}"
              f" searched={fail.searched} direct={fail.direct}")
    return EXIT_DISAGREE


def cmd_oracle_phi(args) -> int:
    g = _load(args.file)
    if _print_issues(validate(g), sys.stderr):
        return EXIT_INVALID
    greedy = capital_phi(g)
    brute = bruteforce_phi(g)
    if greedy == brute:
        print(f"Phi = {greedy} (greedy = brute force)")
        return EXIT_OK
    print(f"DISAGREEMENT: greedy Phi = {greedy}, brute force Phi = {brute}")
    return EXIT_DISAGREE


def cmd_oracle_minf(args) -> int:
    g = _load(args.file)
    if _print_issues(validate(g), sys.stderr):
        return EXIT_INVALID
    mode = "tree" if capital_phi(g) == 0 else "general"
    production = bound_tree(g) if mode == "tree" else bound_general(g)
    exhaustive = bruteforce_min_f(g, mode)
    compared = (
        ("min", production.min_penalty, exhaustive.value),
        ("tree", production.witness_tree, exhaustive.tree),
        ("psi", production.witness_psi, exhaustive.psi),
        ("psi'", production.witness_psi_prime or (), exhaustive.psi_prime),
    )
    differing = [(name, ours, theirs) for name, ours, theirs in compared if ours != theirs]
    if not differing:
        print(f"min penalty sum = {exhaustive.value}, witnesses equal"
              f" (exhaustive = production, {mode} bookkeeping)")
        return EXIT_OK
    for name, ours, theirs in differing:
        print(f"DISAGREEMENT: production {name} = {ours}, exhaustive {name} = {theirs}")
    return EXIT_DISAGREE


def cmd_batch(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return EXIT_PARSE
    worst = EXIT_OK
    for path in sorted(root.glob("*.json")):
        print(f"== {path.name}")
        try:
            g = _load(path)
        except GraphFormatError as exc:
            print(f"parse error: {exc}")
            worst = max(worst, EXIT_PARSE)
            print()
            continue
        if _print_issues(validate(g), sys.stdout):
            worst = max(worst, EXIT_INVALID)
            print()
            continue
        print("ok")
        try:
            report = best_bound(g)
        except CapExceeded as exc:
            print(f"cap exceeded: {exc}")
            worst = max(worst, EXIT_CAP)
            print()
            continue
        _print_report(report)
        print()
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmbound",
        description="Complexity upper bounds for graph manifolds given by decomposition graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file for admissibility")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bound", help="compute the complexity upper bound")
    p.add_argument("file")
    p.add_argument("--theorem", choices=("auto", "regular", "tree", "general"), default="auto")
    p.add_argument("--breakdown", action="store_true", help="print the full term breakdown")
    p.add_argument("--max-trees", type=_cap, default=None,
                   help="cap on optimal trees (one per set of tree H-edges)")
    p.add_argument("--max-assignments", type=_cap, default=None,
                   help="cap on the unpruned labeling search per set of tree H-edges, "
                        "2^(|H|-Phi) * 6^Phi, checked before searching (also MC_MAX_ASSIGNMENTS)")
    p.add_argument("--normalize-first", action="store_true",
                   help="normalize edge matrices (shifting b parameters) before validating")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("normalize", help="normalize all edge matrices and print the new graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("oracle", help="run a brute-force cross-check")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("lemma", help="check the complexity formula by tree search")
    q.add_argument("beta_max", type=int)
    q.set_defaults(func=cmd_oracle_lemma)

    q = osub.add_parser("phi", help="compare greedy Phi with full enumeration")
    q.add_argument("file")
    q.set_defaults(func=cmd_oracle_phi)

    q = osub.add_parser("minf", help="compare the penalty minimum with exhaustive search")
    q.add_argument("file")
    q.set_defaults(func=cmd_oracle_minf)

    p = sub.add_parser("batch", help="validate and bound every .json file in a directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get("MC_MAX_ASSIGNMENTS")
    if args.command == "bound" and args.max_assignments is None and env is not None:
        try:
            args.max_assignments = _cap(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"MC_MAX_ASSIGNMENTS {exc}")
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
