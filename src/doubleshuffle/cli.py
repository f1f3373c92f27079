"""Command-line front end: every computation as a reproducible table dump.

All commands are pure and stateless; given identical parameters the output
is byte-identical across runs and across parallelism degrees (independent
(N, r) cells are mapped in a fixed order and merged deterministically).
Each table is built once, by the command that prints it, from library
values; a rational prints as its ``str``, p/q with no /1.
Output is TSV (tab separators, LF line endings) or JSON with the schema
{"command": ..., "params": ..., "rows": [...]}.

Exit codes: 0 success / all cells match; 1 empty domain or failed check;
2 usage error (anything wrong in argv, found before the work starts);
3 internal fault (any other exception, one ``internal error:`` line) or a
failed output write.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .ihara import DepthPoly, bracket, depth1_generator
from .double_shuffle import dimension, iterated_bracket_span, ls_cells, solve
from .exceptional import exceptional_elements, express_in_basis
from .odd_mzv import odd_cells, odd_rank
from .period_poly import basis_S, cusp_dimension, integral_generators
from .series import bk_series, eos, hoffman_dims, pbw

MAX_WEIGHT_BOUND = 20
MAX_DEPTH_BOUND = 5
MAX_SERIES_WEIGHT_BOUND = 40  # series truncation; period and exceptional weights
MAX_BRACKET_DEPTH = 8         # a generator counts 1, an exceptional e<w> 4
# The slowest depth-8 shape at weight 26, {3,{3,{3,{3,{3,{3,{3,5}}}}}}},
# takes 5 s and 300 MB on one 2-vCPU core; weight 30 takes 20 s and 910 MB.
MAX_BRACKET_WEIGHT = 26
# bk-check odd at weight 31, depth 8: 23.5 s and 118 MB on one 2-vCPU core
MAX_TABLE_WEIGHT = 31
MAX_JOBS = 64                 # a pool starts all its workers at the first submit


class UsageError(Exception):
    pass


def _emit(args, command: str, params: dict, rows: list[list],
          header_lines: list[str] | None = None) -> None:
    if args.format == "json":
        text = json.dumps({"command": command, "params": params, "rows": rows},
                          separators=(",", ":")) + "\n"
    else:
        lines = [f"# {line}" for line in (header_lines or [])]
        lines.extend("\t".join(map(str, row)) for row in rows)
        text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a failed write raises here, not at exit


def _map_cells(fn, cells, jobs: int):
    """Order-preserving map over independent cells, one worker per cell at
    most."""
    if jobs <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(fn, cells))


def _dims_cell(cell: tuple[int, int]) -> list:
    N, r = cell
    return [N, r, dimension(N, r)]


def _span_cell(cell: tuple[int, int]) -> list:
    N, r = cell
    return [N, r, iterated_bracket_span(N, r).dimension]


def _term_rows(poly) -> list[list[str]]:
    """[exponents, coefficient] per term, in graded-lexicographic order."""
    return [[",".join(map(str, exps)), str(coeff)]
            for exps, coeff in poly.sorted_terms()]


def _odd_cell(cell: tuple[int, int]) -> list:
    N, r = cell
    return [2 * N + r, r, odd_rank(N, r)]


_GRID_CELLS = {"dims": _dims_cell, "span": _span_cell}


def cmd_grid(args) -> int:
    """dims or span: one row per ls cell, sorted by (N, r)."""
    _check_bounds(args.max_weight, args.max_depth)
    rows = _map_cells(_GRID_CELLS[args.command],
                      ls_cells(args.max_weight, args.max_depth), args.jobs)
    rows.sort(key=lambda row: (row[0], row[1]))
    _emit(args, args.command, {"max_weight": args.max_weight,
                               "max_depth": args.max_depth}, rows)
    return 0


def cmd_exceptional(args) -> int:
    twoN = args.weight
    if not 12 <= twoN <= MAX_SERIES_WEIGHT_BOUND or twoN % 2:
        raise UsageError(f"weight must be even and in 12..{MAX_SERIES_WEIGHT_BOUND}")
    if cusp_dimension(twoN) == 0:
        print(f"dim S = 0 at weight {twoN}: no exceptional elements",
              file=sys.stderr)
        return 1
    if args.generator == "paper" and twoN not in integral_generators():
        raise UsageError(f"no fixed integral generator at weight {twoN}")
    elements = exceptional_elements(twoN, args.generator)
    rows = []
    headers = []
    for el in elements:
        headers.append(f"source: {el.name} (weight {twoN}, depth 4, "
                       f"{el.term_count()} terms)")
        rows.extend([el.name, *row] for row in _term_rows(el.reduced.body))
    _emit(args, "exceptional",
          {"weight": twoN, "generator": args.generator,
           "sources": [el.name for el in elements],
           "term_counts": [el.term_count() for el in elements]},
          rows, header_lines=headers)
    return 0


# (weight bound, depth bound) of each bk-check target; full-t1 reads no depth
_BK_BOUNDS = {"ls": (MAX_WEIGHT_BOUND, MAX_DEPTH_BOUND),
              "odd": (MAX_TABLE_WEIGHT, 8),
              "full-t1": (MAX_SERIES_WEIGHT_BOUND, None)}


def cmd_bk_check(args) -> int:
    """Rows [key, key, computed, predicted, flag], in key order."""
    weight_bound, depth_bound = _BK_BOUNDS[args.target]
    W, D = args.max_weight, args.max_depth if depth_bound else None
    _check_bounds(W, D, weight_bound, depth_bound)
    if args.target == "ls":
        dims = {(N, r): d for N, r, d in
                _map_cells(_dims_cell, ls_cells(W, D), args.jobs) if d}
        computed, predicted = pbw(dims, W, D), bk_series("ls", W, D)
        rows = [[N, d, computed.coefficient(N, d), predicted.coefficient(N, d)]
                for N in range(W + 1) for d in range(D + 1)]
    elif args.target == "odd":
        ranks = {(w, r): v for w, r, v in
                 _map_cells(_odd_cell, odd_cells(W, D), args.jobs)}
        predicted = bk_series("odd", W, D)
        rows = [[w, r, ranks.get((w, r), 0), predicted.coefficient(w, r)]
                for w in range(W + 1) for r in range(1, D + 1)
                if ranks.get((w, r)) or predicted.coefficient(w, r)]
    else:
        computed, predicted = bk_series("full", W, W).t_at_one(), hoffman_dims(W)
        rows = [[N, "", computed[N], predicted[N]] for N in range(W + 1)]
    rows = [row + ["ok" if row[2] == row[3] else "MISMATCH"] for row in rows]
    params = {"max_weight": W, "max_depth": D, "target": args.target}
    _emit(args, "bk-check", {k: v for k, v in params.items() if v is not None},
          rows)
    return 0 if all(row[-1] == "ok" for row in rows) else 1


# at most 9 digits per number, far past every bound, so int() never fails
_BRACKET_TOKEN = re.compile(r"[{},]|e(\d{1,9})(?:\[(\d{1,9})\])?|(\d{1,9})")


def _parse_bracket_expr(text: str):
    """Parse a bracket expression into a tree of ("{", left, right),
    ("g", weight) and ("e", weight, index) nodes, without recursion.

    Every leaf, the depth, the weight and the syntax are checked before
    anything is evaluated.
    """
    text = "".join(text.split())
    stack: list = []  # "{", "," and finished nodes
    depth = weight = pos = 0
    while pos < len(text):
        match = _BRACKET_TOKEN.match(text, pos)
        if match is None:
            raise UsageError(f"cannot parse bracket expression at {text[pos:]!r}")
        pos = match.end()
        twoN, index, gen = match.groups()
        if twoN is not None:
            if int(twoN) % 2 or not 12 <= int(twoN) <= MAX_SERIES_WEIGHT_BOUND:
                raise UsageError(f"e<w> needs an even w in 12..{MAX_SERIES_WEIGHT_BOUND}")
            if int(index or 0) >= cusp_dimension(int(twoN)):
                raise UsageError(f"no exceptional element e{twoN}[{index or 0}]")
            stack.append(("e", int(twoN), int(index or 0)))
            depth += 4
            weight += int(twoN)
        elif gen is not None:
            if int(gen) < 3 or int(gen) % 2 == 0:
                raise UsageError(f"generator {gen} is not odd and >= 3")
            stack.append(("g", int(gen)))
            depth += 1
            weight += int(gen)
        elif match.group() != "}":
            stack.append(match.group())
        elif (len(stack) >= 4 and stack[-4] == "{" and stack[-2] == ","
              and isinstance(stack[-3], tuple) and isinstance(stack[-1], tuple)):
            stack[-4:] = [("{", stack[-3], stack[-1])]
        else:
            raise UsageError("unbalanced bracket expression")
    if depth > MAX_BRACKET_DEPTH:
        raise UsageError(f"bracket expression depth exceeds {MAX_BRACKET_DEPTH}")
    if weight > MAX_BRACKET_WEIGHT:
        raise UsageError(f"bracket expression weight exceeds {MAX_BRACKET_WEIGHT}")
    if len(stack) != 1 or not isinstance(stack[0], tuple):
        raise UsageError("unbalanced bracket expression")
    return stack[0]


def _evaluate_bracket(node) -> DepthPoly:
    if node[0] == "{":
        return bracket(_evaluate_bracket(node[1]), _evaluate_bracket(node[2]))
    if node[0] == "g":
        return depth1_generator(node[1])
    _, twoN, index = node
    return exceptional_elements(twoN, "auto")[index].reduced


def cmd_bracket(args) -> int:
    element = _evaluate_bracket(_parse_bracket_expr(args.expr))
    rows = _term_rows(element.body)
    _emit(args, "bracket",
          {"expr": args.expr, "weight": element.weight, "depth": element.depth,
           "terms": len(element.body)},
          rows,
          header_lines=[f"weight {element.weight} depth {element.depth} "
                        f"terms {len(element.body)}"])
    return 0 if rows else 1


def _parse_composition(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(re.fullmatch(r"\s*\d{1,9}\s*", part) and int(part) > 0
               for part in parts):
        raise UsageError(f"{text!r} is not a comma-separated list of positive integers")
    return tuple(map(int, parts))


def cmd_express(args) -> int:
    composition = _parse_composition(args.composition)
    _check_bounds(sum(composition), len(composition))
    if args.relative_to:
        reference = _parse_composition(args.relative_to)
        if (sum(reference), len(reference)) != (sum(composition), len(composition)):
            raise UsageError("--relative-to needs the weight and length of --composition")
    space = solve(sum(composition), len(composition))
    if space.dimension == 0:
        print("solution space is zero-dimensional", file=sys.stderr)
        return 1
    coords = express_in_basis(composition, space)
    rows: list[list] = []
    if args.relative_to:
        ref_coords = express_in_basis(reference, space)
        for i, (c, ref) in enumerate(zip(coords, ref_coords)):
            if ref == 0:
                rows.append([i, args.composition, args.relative_to, "undefined"])
            else:
                rows.append([i, args.composition, args.relative_to,
                             str(Fraction(c, 1) / ref)])
    else:
        rows = [[i, args.composition, str(c)]
                for i, c in enumerate(coords)]
    _emit(args, "express",
          {"composition": list(composition),
           "relative_to": args.relative_to, "dimension": space.dimension},
          rows)
    return 0


def cmd_period(args) -> int:
    twoN = args.weight
    if not 4 <= twoN <= MAX_SERIES_WEIGHT_BOUND or twoN % 2:
        raise UsageError(f"weight must be even and in 4..{MAX_SERIES_WEIGHT_BOUND}")
    elements = basis_S(twoN)
    if not elements:
        print(f"dim S = 0 at weight {twoN}", file=sys.stderr)
        return 1
    rows = []
    for i, pp in enumerate(elements):
        for part, poly in (("P", pp.P), ("f0", pp.f0), ("f1", pp.f1)):
            rows.extend([i, part, *row] for row in _term_rows(poly))
    _emit(args, "period", {"weight": twoN, "dimension": len(elements)}, rows)
    return 0


def cmd_series(args) -> int:
    kind = args.kind
    if not (0 <= args.max_s <= MAX_SERIES_WEIGHT_BOUND and 0 <= args.max_t <= 8):
        raise UsageError(f"max-s must be in 0..{MAX_SERIES_WEIGHT_BOUND} "
                         "and max-t in 0..8")
    if kind in ("full", "ls", "odd"):
        series = bk_series(kind, args.max_s, args.max_t)
    else:
        E, O, S = eos(args.max_s, args.max_t)
        series = {"E": E, "O": O, "S": S}[kind]
    rows = [list(triple) for triple in series.dump_rows()]
    _emit(args, "series", {"kind": kind, "max_s": args.max_s,
                           "max_t": args.max_t}, rows)
    return 0


def _check_bounds(max_weight: int, max_depth: int | None,
                  weight_bound: int = MAX_WEIGHT_BOUND,
                  depth_bound: int | None = MAX_DEPTH_BOUND) -> None:
    if not (1 <= max_weight <= weight_bound):
        raise UsageError(f"max-weight must be in 1..{weight_bound}")
    if max_depth is not None and not (1 <= max_depth <= depth_bound):
        raise UsageError(f"max-depth must be in 1..{depth_bound}")


def _add_common(p: argparse.ArgumentParser, jobs: bool = False) -> None:
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    if jobs:  # only the commands that map independent cells
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers over independent cells")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleshuffle",
        description="Exact computations in the depth-graded double shuffle "
                    "Lie algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("dims", "dimension table of the solution spaces"),
                       ("span", "dimensions of iterated depth-1 bracket spans")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--max-weight", type=int, default=12)
        p.add_argument("--max-depth", type=int, default=4)
        _add_common(p, jobs=True)
        p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("exceptional", help="dump exceptional depth-4 elements")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--generator", choices=("auto", "paper", "canonical"),
                   default="auto")
    _add_common(p)
    p.set_defaults(fn=cmd_exceptional)

    p = sub.add_parser("bk-check", help="computed vs predicted dimension tables")
    p.add_argument("--max-weight", type=int, default=16)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--target", choices=("ls", "odd", "full-t1"), default="ls")
    _add_common(p, jobs=True)
    p.set_defaults(fn=cmd_bk_check)

    p = sub.add_parser("bracket", help="evaluate a bracket expression, "
                                       "e.g. '{3,9}' or '{3,{5,7}}' or '{3,e12}'")
    p.add_argument("--expr", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("express", help="dual-monomial coordinates on a solution space")
    p.add_argument("--composition", required=True,
                   help="comma-separated composition, e.g. 4,3,3,2")
    p.add_argument("--relative-to", default=None,
                   help="reference composition for ratios, e.g. 1,1,8,2")
    _add_common(p)
    p.set_defaults(fn=cmd_express)

    p = sub.add_parser("period", help="cusp period polynomial bases")
    p.add_argument("--weight", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("series", help="dump a dimension generating series")
    p.add_argument("--kind", choices=("full", "ls", "odd", "E", "O", "S"),
                   default="ls")
    p.add_argument("--max-s", type=int, default=40)
    p.add_argument("--max-t", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "jobs", 1) <= MAX_JOBS:
            raise UsageError(f"--jobs must be in 1..{MAX_JOBS}")
        if args.output and (os.path.isdir(args.output) or not os.access(
                os.path.dirname(os.path.abspath(args.output)), os.W_OK)):
            raise UsageError(f"--output {args.output} is not a writable file")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed output write
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other fault, a failed assertion included
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
