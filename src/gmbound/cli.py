"""Command line interface.

Subcommands: validate, bound, normalize, oracle (lemma | phi | minf), batch.
The commands name the evaluator by its label, and bounds._bound alone maps
a label to the evaluator: bound passes its --theorem (auto as None, the most
specific that applies), oracle minf its tree or general bookkeeping, and
batch calls best_bound, the None label.
The commands that search, bound, batch and oracle minf (both sides), share
one budget: bound's --max-assignments, else MC_MAX_ASSIGNMENTS, else
DEFAULT_ASSIGNMENT_CAP; the other commands ignore the variable.
Exit codes: 0 ok, 1 invalid graph or inapplicable evaluator, 2 unreadable or
malformed input or a bad cap value, 3 search cap exceeded, 4 oracle
disagreement.  REFUSALS is the one place that maps an exception to its exit
code and message prefix: main prints the refusal on stderr, batch on stdout
under the file's header.  All output is deterministic for a given input.
The oracle commands import gmbound.oracle, the checking code, when they
run, so bound, batch, validate and normalize never load it or the flip
search it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

from .bounds import DEFAULT_ASSIGNMENT_CAP, CapExceeded, TheoremInapplicable, _bound, best_bound
from .graph import DecompositionGraph, GraphFormatError, graph_from_json, graph_to_json, normalize_all, validate
from .spanning import capital_phi

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_DISAGREE = 4

# exception -> (exit code, message prefix) for an input the commands refuse
REFUSALS = {
    GraphFormatError: (EXIT_PARSE, "parse error"),
    CapExceeded: (EXIT_CAP, "cap exceeded"),
    TheoremInapplicable: (EXIT_INVALID, "inapplicable"),
}


def _refuse(exc: Exception, stream) -> int:
    """Print the refusal line for exc on stream; returns its exit code."""
    code, prefix = REFUSALS[type(exc)]
    print(f"{prefix}: {exc}", file=stream)
    return code


def _load(path: str | Path) -> DecompositionGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return graph_from_json(text)


def _at_least(low: int, wording: str):
    """An argparse type for an integer >= low; wording names it in errors."""
    def parse(text: str) -> int:
        try:
            with _all_digits():  # an integer of any length, a cap included
                value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
    return parse


_cap = _at_least(0, "a non-negative integer")  # a search cap


@contextmanager
def _all_digits():
    """Lift Python's limit on int-to-string conversion inside the block.

    Python refuses to convert an int of more than 4300 digits to or from a
    string, to keep parsing hostile input cheap.  A bound, a penalty
    minimum, or a b after normalizing, of an accepted graph can be longer,
    so the limit is lifted while such output is written and graph_from_json
    keeps it.  The k and h of a move never outgrow the parsed entries.  An
    integer given on the command line or in MC_MAX_ASSIGNMENTS is read with
    the limit lifted too, so any non-negative integer is a cap.
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


def _normalized(g: DecompositionGraph) -> DecompositionGraph | None:
    """g with every edge normalized, after reporting the moves on stderr;
    None, once the reason is printed, if a label cannot be normalized."""
    try:
        g, moves = normalize_all(g)
    except ValueError as exc:
        print(f"cannot normalize: {exc}", file=sys.stderr)
        return None
    changed = [mv for mv in moves if mv.k or mv.h]
    if not changed:
        print("all edges already normalized", file=sys.stderr)
    for mv in changed:
        print(f"edge {mv.edge_id}: k={mv.k}, h={mv.h}"
              f" (b: source {mv.k:+d}, target {-mv.h:+d})", file=sys.stderr)
    return g


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
        g = _normalized(g)
        if g is None:
            return EXIT_INVALID
    if _print_issues(validate(g), sys.stderr):
        print("graph is not valid; see messages above", file=sys.stderr)
        return EXIT_INVALID
    # the choices are _bound's labels; auto is its None, the most specific
    _print_report(_bound(g, None if args.theorem == "auto" else args.theorem, args.max_assignments), args.breakdown)
    return EXIT_OK


def cmd_normalize(args) -> int:
    g = _normalized(_load(args.file))
    if g is None:
        return EXIT_INVALID
    with _all_digits():
        sys.stdout.write(graph_to_json(g))
    return EXIT_OK


def cmd_oracle_lemma(args) -> int:
    from .oracle import verify_lemma

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
    from .oracle import bruteforce_phi

    g = _load(args.file)
    if _print_issues(validate(g), sys.stderr):
        return EXIT_INVALID
    greedy, brute = capital_phi(g), bruteforce_phi(g)
    if greedy == brute:
        print(f"Phi = {greedy} (greedy = brute force)")
        return EXIT_OK
    print(f"DISAGREEMENT: greedy Phi = {greedy}, brute force Phi = {brute}")
    return EXIT_DISAGREE


def cmd_oracle_minf(args) -> int:
    from .oracle import bruteforce_min_f

    g = _load(args.file)
    if _print_issues(validate(g), sys.stderr):
        return EXIT_INVALID
    mode = "tree" if capital_phi(g) == 0 else "general"
    production = _bound(g, mode, args.max_assignments)
    exhaustive = bruteforce_min_f(g, mode, assignment_cap=args.max_assignments)
    compared = (
        ("min", production.min_penalty, exhaustive.value),
        ("tree", production.witness_tree, exhaustive.tree),
        ("psi", production.witness_psi, exhaustive.psi),
        ("psi'", production.witness_psi_prime or (), exhaustive.psi_prime),
    )
    differing = [(name, ours, theirs) for name, ours, theirs in compared if ours != theirs]
    with _all_digits():
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
            if _print_issues(validate(g), sys.stdout):
                worst = max(worst, EXIT_INVALID)
            else:
                print("ok")
                _print_report(best_bound(g, assignment_cap=args.max_assignments))
        except tuple(REFUSALS) as exc:
            worst = max(worst, _refuse(exc, sys.stdout))
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
    p.add_argument("--theorem", choices=("auto", "regular", "tree", "general"), default="auto",
                   help="the evaluator: auto picks the most specific that applies, as best_bound "
                        "does; any other label runs bound_<label> and exits 1 where it does not apply")
    p.add_argument("--breakdown", action="store_true", help="print the full term breakdown")
    p.add_argument("--max-assignments", type=_cap, default=None,
                   help="the search budget: cap on the unpruned labeling search per set of tree "
                        "H-edges, 2^(|H|-Phi) * 6^Phi, checked before searching; it also bounds the "
                        "tree scan, which checks at most comb(|H|, Phi) <= 2^|H| subsets of H-edges "
                        "(default MC_MAX_ASSIGNMENTS, else 2^20)")
    p.add_argument("--normalize-first", action="store_true",
                   help="normalize edge matrices (shifting b parameters) before validating")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("normalize", help="normalize all edge matrices and print the new graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("oracle", help="run a brute-force cross-check")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("lemma", help="check the complexity formula by tree search")
    q.add_argument("beta_max", type=_at_least(2, "an integer >= 2"))
    q.set_defaults(func=cmd_oracle_lemma)

    q = osub.add_parser("phi", help="compare greedy Phi with full enumeration")
    q.add_argument("file")
    q.set_defaults(func=cmd_oracle_phi)

    q = osub.add_parser("minf", help="compare the penalty minimum with exhaustive search")
    q.add_argument("file")
    q.set_defaults(func=cmd_oracle_minf, max_assignments=None)

    p = sub.add_parser("batch", help="validate and bound every .json file in a directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_batch, max_assignments=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # only the commands that search carry max_assignments
    if "max_assignments" in args and args.max_assignments is None:
        env = os.environ.get("MC_MAX_ASSIGNMENTS")
        try:
            args.max_assignments = DEFAULT_ASSIGNMENT_CAP if env is None else _cap(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"MC_MAX_ASSIGNMENTS {exc}")
    try:
        return args.func(args)
    except tuple(REFUSALS) as exc:
        return _refuse(exc, sys.stderr)


def main_exit() -> None:
    """The console entry point: main on the process's own streams.

    Text stdout cannot encode prints as backslash escapes, as Python prints
    it on stderr, and a reader that closes stdout early ends the run by
    SIGPIPE, as it ends cat, instead of in a BrokenPipeError traceback.
    """
    sys.stdout.reconfigure(errors="backslashreplace")
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
