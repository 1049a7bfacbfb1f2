"""Command-line interface.

Subcommands:
  build     construct a strong power graph (DOT, JSON edge list, or CSV matrix)
  charpoly  exact characteristic polynomial and its closed form
            (exactalg.closed_form), both printed expanded; match is verify's
            verdict on their factor lists, the prime cross-check included
  spectrum  closed-form spectrum, numeric eigenvalues (Householder + QL), and
            their comparison; at a prime order the closed form read is the
            corollary alone, not the general cubic
  verify    run every applicable check over a range of cyclic orders: per
            order, one check per matrix a closed form covers, and the
            graph's connectivity; the charpolys are compared as factor
            lists, none expanded

Exit codes: 0 success, 1 verification failure (a failed order for verify,
a failed comparison or a closed form with no real spectrum to read for
spectrum, a false match for charpoly, a closed form that does not expand
exactly, or a charpoly the integer stage refuses), 2 usage or parse error
(including a group order above --max-order) or an output that cannot be
written, standard output included, 3 inapplicable input (a disconnected
graph, or no closed form in the paper).  The SPG_LOG environment variable
sets log verbosity (debug, info, warning, error, critical); any other value
is reported on stderr and read as warning.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from contextlib import nullcontext, suppress
from typing import Optional, Sequence

from .exactalg import (
    InexactDivision,
    IntegerGrowth,
    NoClosedForm,
    charpoly_factors,
    closed_form,
    expand,
)
from .graphs import (
    DisconnectedGraph,
    adjacency_matrix,
    distance_matrix,
    matrix_to_csv,
    strong_power_graph,
    to_dot,
    to_json,
)
from .groups import (
    CayleyTableError,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    GroupSpec,
    load_cayley_table,
)
from .jsontext import dumps_indented
from .spectra import (
    ComplexRoots,
    adjacency_spectrum_closed,
    compare_spectra,
    comparison_holds,
    distance_spectrum_closed,
    symmetric_eigenvalues,
)
from .verify import DEFAULT_TOL, charpoly_match, check_range, verify_range

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3

# The builders, the charpoly and the oracle allocate a few n x n arrays.  At
# this order the widest are the charpoly's int64 working copy and the
# oracle's float64 working array, 32 MiB each.  The graph side's widest is
# the builder's float32 power sets, 16 MiB; the boolean adjacency and the
# int16 distances take 4 and 8 MiB.  The build meets only the few rows
# without the element in the most power sets, and the distances take no
# BFS arrays when one vertex is adjacent to every other, as at every
# composite order, or to every vertex that is not isolated, as at a prime.
DEFAULT_MAX_ORDER = 2048

# main writes the document this many characters at a time, so a text-mode
# write encodes one slice, not a copy of the whole document
WRITE_SLICE = 1 << 20

log = logging.getLogger("spg.cli")


class GroupSpecParseError(ValueError):
    """A --group string did not match the grammar."""


def parse_group_spec(text: str, max_order: Optional[int] = None) -> GroupSpec:
    """Parse "cyclic:N" | "product:A,B[,C...]" | "dihedral:M" | "cayley:PATH".

    With max_order set, a group of larger order is refused before anything
    of its size is built; for a Cayley table the document's "order" is
    checked before the table is validated.
    """
    head, sep, tail = text.partition(":")
    if not sep or not tail:
        raise GroupSpecParseError(f"malformed group spec {text!r}")
    try:
        if head == "cyclic":
            group: GroupSpec = CyclicGroup(_positive_int(tail))
        elif head == "product":
            group = DirectProductGroup([_positive_int(part) for part in tail.split(",")])
        elif head == "dihedral":
            group = DihedralGroup(_positive_int(tail))
        elif head == "cayley":
            try:
                with open(tail, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except OSError as exc:
                raise GroupSpecParseError(f"cannot read Cayley table {tail!r}: {exc}")
            except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
                raise GroupSpecParseError(f"invalid JSON in {tail!r}: {exc}")
            order = document.get("order") if isinstance(document, dict) else None
            if isinstance(order, int):
                _check_order(order, max_order)
            return load_cayley_table(document)
        else:
            raise GroupSpecParseError(f"unknown group kind {head!r} in {text!r}")
    except (ValueError, TypeError) as exc:
        if isinstance(exc, GroupSpecParseError):
            raise
        raise GroupSpecParseError(f"bad group spec {text!r}: {exc}") from exc
    _check_order(group.order, max_order)  # the constructors build nothing of the group's size
    return group


def _check_order(order: int, max_order: Optional[int]) -> None:
    if max_order is not None and order > max_order:
        raise GroupSpecParseError(f"group order {order} exceeds --max-order {max_order}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _max_order_arg(text: str) -> int:
    try:
        return _positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return abs(value)  # -0.0 becomes 0.0


def cmd_build(args: argparse.Namespace) -> tuple[int, str]:
    group = parse_group_spec(args.group, args.max_order)
    graph = strong_power_graph(group)
    if args.format == "dot":
        return EXIT_OK, to_dot(graph, group.labels)
    if args.format == "csv":
        return EXIT_OK, matrix_to_csv(adjacency_matrix(graph))
    return EXIT_OK, to_json(graph, args.group)


def cmd_charpoly(args: argparse.Namespace) -> tuple[int, str]:
    """The exact charpoly and its closed form (exactalg.closed_form), both
    printed expanded.  match is verify's verdict (verify.charpoly_match),
    the prime cross-check included, and a false match exits 1.  Order 1,
    which no closed form covers, prints null for both and exits 0."""
    group = parse_group_spec(args.group, args.max_order)
    graph = strong_power_graph(group)
    matrix = distance_matrix(graph) if args.matrix == "distance" else adjacency_matrix(graph)
    computed = charpoly_factors(matrix)
    try:
        closed, source = closed_form(group, args.matrix)
    except NoClosedForm:
        closed = None
    document = {
        "group": args.group,
        "n": graph.n,
        "matrix": args.matrix,
        "charpoly": expand(computed).to_coeff_strings(),
        "closed_form": expand(closed).to_coeff_strings() if closed is not None else None,
        "match": charpoly_match(computed, closed, source, graph.n) if closed is not None else None,
    }
    code = EXIT_VERIFY_FAILED if document["match"] is False else EXIT_OK
    return code, dumps_indented(document) + "\n"


def cmd_spectrum(args: argparse.Namespace) -> tuple[int, str]:
    """The closed-form spectrum against the numeric eigenvalues; a
    comparison that fails at --tol (spectra.comparison_holds) exits 1."""
    group = parse_group_spec(args.group, args.max_order)
    graph = strong_power_graph(group)
    distance = args.matrix == "distance"
    matrix = distance_matrix(graph) if distance else adjacency_matrix(graph)
    closed = distance_spectrum_closed(group) if distance else adjacency_spectrum_closed(group)
    numeric = symmetric_eigenvalues(matrix)
    comparison = compare_spectra(closed, numeric)
    document = {
        "n": graph.n,
        "matrix": args.matrix,
        "theta_radians": closed.theta,
        "eigenvalues": [{"value": value, "multiplicity": mult} for value, mult in closed.entries],
        "source": closed.source,
        "numeric_eigenvalues": numeric,
        "comparison": {**vars(comparison), "within_tol": comparison.max_abs_deviation <= args.tol},
    }
    code = EXIT_OK if comparison_holds(comparison, args.tol) else EXIT_VERIFY_FAILED
    return code, dumps_indented(document) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise GroupSpecParseError(f"range must look like A..B, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise GroupSpecParseError(f"bad range {text!r}: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    n_min, n_max = _parse_range(args.range)
    _check_order(n_max, args.max_order)
    try:
        check_range(n_min, n_max, args.tol)
    except ValueError as exc:
        raise GroupSpecParseError(str(exc)) from exc
    report = verify_range(n_min, n_max, tol=args.tol)
    code = EXIT_OK if not report.failures else EXIT_VERIFY_FAILED
    return code, report.to_json() + "\n"


def _configure_logging() -> None:
    """Log at the level SPG_LOG names, warning by default.  Any other value
    is reported in one stderr line and read as warning."""
    name = os.environ.get("SPG_LOG", "warning")
    level = logging.getLevelName(name.upper())  # an int only for a level name
    if not isinstance(level, int):
        print(
            f"spg: warning: SPG_LOG={name!r} is not a log level; "
            "expected one of debug, info, warning, error, critical; using warning",
            file=sys.stderr,
        )
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main() call; parse_args keeps no state between calls.  Each option is
    declared once, in a parent parser shared by the subcommands taking it."""
    group, matrix, tol, out, max_order = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    group.add_argument("--group", required=True, help="cyclic:N | product:A,B | dihedral:M | cayley:PATH")
    matrix.add_argument("--matrix", choices=("adjacency", "distance"), default="adjacency")
    tol.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL)
    out.add_argument("--out", help="write the document to this path")
    max_order.add_argument(
        "--max-order", type=_max_order_arg, default=DEFAULT_MAX_ORDER,
        help="refuse a group order (for verify, the range's largest) above this before building "
        f"anything (default {DEFAULT_MAX_ORDER}; exit code 2)",
    )
    parser = argparse.ArgumentParser(
        prog="spg", description="Strong power graph construction and verification."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", parents=[group, out, max_order], help="construct a strong power graph")
    build.add_argument("--format", choices=("dot", "json", "csv"), default="json")
    build.set_defaults(handler=cmd_build)

    sub.add_parser(
        "charpoly", parents=[group, matrix, out, max_order], help="exact characteristic polynomial"
    ).set_defaults(handler=cmd_charpoly)
    sub.add_parser(
        "spectrum", parents=[group, matrix, tol, out, max_order], help="closed-form vs numeric spectrum"
    ).set_defaults(handler=cmd_spectrum)

    verify = sub.add_parser("verify", parents=[tol, out, max_order],
                            help="verify closed forms over a range of orders")
    verify.add_argument("--range", required=True, help="A..B with 2 <= A <= B")
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, document = args.handler(args)
    except (GroupSpecParseError, CayleyTableError) as exc:
        print(f"spg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DisconnectedGraph, NoClosedForm) as exc:
        print(f"spg: inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ComplexRoots, InexactDivision, IntegerGrowth) as exc:
        print(f"spg: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            for start in range(0, len(document), WRITE_SLICE):
                out.write(document[start : start + WRITE_SLICE])
            out.flush()
    except OSError as exc:
        print(f"spg: error: cannot write {args.out or 'standard output'}: {exc}", file=sys.stderr)
        if not args.out:  # stdout's last flush at exit goes to os.devnull, not to a traceback
            with suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())  # no-op with no descriptor
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
