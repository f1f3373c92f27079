"""The four workloads: their inputs, the operations of one pass, and the
checks on every output.

A pass is one closed loop: a single caller issues one operation (a cell,
an element or a triple), waits for its result, then issues the next.  The
seed only orders the operations (and the elements inside each bracket
triple); the program's outputs do not depend on it.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("ls-nullspace", "ls-depth5", "brackets", "odd")
SIZES = ("full", "smoke")

# bk-check arguments of the CLI workloads; every pass uses --jobs 1.
CLI_ARGS = {
    ("ls-nullspace", "full"): ("ls", 14, 4),
    ("ls-nullspace", "smoke"): ("ls", 10, 4),
    ("ls-depth5", "full"): ("ls", 13, 5),
    ("ls-depth5", "smoke"): ("ls", 9, 5),
    ("odd", "full"): ("odd", 21, 7),
    ("odd", "smoke"): ("odd", 15, 7),
}

# brackets: exceptional weights, and the triples as fixed multisets of
# criterion-9 pool elements ("g5" is the depth-1 generator of weight 5,
# "d8" the depth-2 solution of weight 8).  Jacobi plus antisymmetry on all
# three pairs does the same work in every order of a triple, so the seed
# can reorder the triples without changing any count.
BRACKET_WEIGHTS = {"full": (12, 14, 16, 18, 20), "smoke": (12,)}
BRACKET_TRIPLES = {"full": (("g3", "g5", "d8"), ("g3", "g7", "d8")),
                   "smoke": (("g3", "g5", "g7"),)}
TERM_COUNTS = {12: [118], 14: [], 16: [320], 18: [420], 20: [654]}
E12_GOLDEN = Path("tests") / "data" / "exceptional_weight12.txt"


def cli_argv(workload: str, size: str) -> list[str]:
    target, weight, depth = CLI_ARGS[(workload, size)]
    return ["bk-check", "--target", target, "--max-weight", str(weight),
            "--max-depth", str(depth), "--jobs", "1"]


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def op_count(workload: str, size: str) -> int:
    """Operations in one pass, so that a pass that dies counts them all."""
    if workload == "brackets":
        return 2 + len(BRACKET_WEIGHTS[size]) + len(BRACKET_TRIPLES[size])
    return len(json.loads(reference_path(workload, size).read_text())["cells"])


def seeded_order(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


class Pass:
    """Timings and outcomes of one pass."""

    def __init__(self):
        self.wall_s = 0.0
        self.ops: list[list] = []        # [label, seconds, ok]
        self.problems: list[str] = []

    def op(self, label: str, seconds: float, ok: bool) -> None:
        self.ops.append([label, seconds, ok])
        if not ok:
            self.problems.append(f"wrong output: {label}")

    def as_dict(self) -> dict:
        return {"wall_s": self.wall_s, "ops": self.ops,
                "problems": self.problems}


# ---------------------------------------------------------------------
# bk-check workloads: ls-nullspace, ls-depth5, odd
# ---------------------------------------------------------------------

def run_cli(cli, argv: list[str], seed: int, tracer=None) -> tuple[int, str, list]:
    """Run ``cli.main(argv)`` with its cells issued in seeded order.

    Returns (exit code, stdout, [[cell, seconds, value], ...]).  The cell
    loop replaces ``cli._map_cells`` (the --jobs 1 path) so that each cell
    is timed; results go back in the CLI's own order.
    """
    timed: list[list] = []

    def map_cells(fn, cells, jobs):
        results = [None] * len(cells)
        for i in seeded_order(len(cells), seed):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            results[i] = fn(cells[i])
            timed.append([f"{cells[i][0]},{cells[i][1]}",
                          time.perf_counter() - start, results[i][2]])
        if tracer is not None:
            tracer.op = None
        return results

    original = cli._map_cells
    cli._map_cells = map_cells
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    finally:
        cli._map_cells = original
    return code, out.getvalue(), timed


def cli_pass(cli, workload: str, size: str, seed: int, reference: dict,
             tracer=None) -> Pass:
    result = Pass()
    root = tracer.begin("cli.main") if tracer is not None else None
    start = time.perf_counter()
    code, tsv, timed = run_cli(cli, cli_argv(workload, size), seed, tracer)
    result.wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end(root)
    expected = reference["cells"]
    if code != reference["exit"]:
        result.problems.append(f"exit code {code}, expected {reference['exit']}")
    if tsv != reference["tsv"]:
        result.problems.append("TSV differs from the reference")
    if len(timed) != len(expected):
        result.problems.append(f"{len(timed)} cells, expected {len(expected)}")
    # a wrong stdout or exit code fails every cell of the pass
    whole_ok = not result.problems
    for label, seconds, value in timed:
        result.op(label, seconds, whole_ok and expected.get(label) == value)
    # a reference cell the hook never timed (the CLI no longer went through
    # _map_cells) fails too, so the gate cannot pass with no operations
    seen = {label for label, _, _ in timed}
    result.ops.extend([label, 0.0, False] for label in expected
                      if label not in seen)
    return result


# ---------------------------------------------------------------------
# brackets: Fraction Poly algebra of exceptional elements and brackets
# ---------------------------------------------------------------------

def _op_pool(m):
    """The triples' elements: depth-1 generators and the primitive depth-2
    solution of weight 8, whose space must have dimension 1."""
    g = m["ihara"].depth1_generator
    pool = {f"g{w}": g(w) for w in (3, 5, 7)}
    space = m["double_shuffle"].solve(8, 2)
    d8 = space.basis[0]
    pool["d8"] = m["ihara"].DepthPoly(
        d8.depth, d8.weight, m["period_poly"].primitive_integral(d8.body))
    return pool, space.dimension


def _op_exceptional(m, w):
    elements = m["exceptional"].exceptional_elements(w)
    members = [m["double_shuffle"].membership_test(e.reduced) for e in elements]
    golden = elements[0].reduced.body.serialize() if w == 12 else None
    return [e.term_count() for e in elements], members, golden


def _op_compose(m):
    """poly_compose(e12, e12) and the restriction-product and factorization
    identities of criterion 9."""
    project = m["exceptional"].project
    [e12] = m["exceptional"].exceptional_elements(12, "paper")
    f1 = m["period_poly"].integral_generators()[12].f1
    composite = m["ihara"].poly_compose(e12.reduced, e12.reduced).body
    P = composite
    for var in (3, 4, 5, 6, 7):
        P = project(P, var, "coeff", 0)
    product_ok = P == f1.embed(8, 0) * f1.embed(8, 1)
    L = composite
    for var in (5, 6, 7):
        L = project(L, var, "coeff", 0)
    L = project(project(L, 0, "even"), 4, "even")
    body = e12.reduced.body
    A = project(project(body, 3, "coeff", 0), 0, "even").embed(8, 0)
    B = project(project(body.embed(8, 2), 4, "even"), 5, "coeff", 0)
    return product_ok and L == A * B


def _op_triple(m, f, h, k):
    """Jacobi sum and antisymmetry of all three pairs of (f, h, k)."""
    bracket = m["ihara"].bracket
    hk, kf, fh = bracket(h, k), bracket(k, f), bracket(f, h)
    jacobi = bracket(f, hk) + bracket(h, kf) + bracket(k, fh)
    antisymmetric = all(bracket(b, a).body == x.scale(-1).body
                        for a, b, x in ((h, k, hk), (k, f, kf), (f, h, fh)))
    return jacobi.is_zero() and antisymmetric


def brackets_pass(m: dict, size: str, seed: int, golden: str,
                  tracer=None) -> Pass:
    """``m`` maps module names to the imported doubleshuffle modules."""
    rng = random.Random(seed)
    triples = [list(t) for t in BRACKET_TRIPLES[size]]
    for t in triples:
        rng.shuffle(t)
    work = ([("exceptional", w) for w in BRACKET_WEIGHTS[size]]
            + [("compose", None)]
            + [("triple", t) for t in triples])
    rng.shuffle(work)
    work.insert(0, ("pool", None))      # the triples need the pool

    result = Pass()
    outcomes = []
    first = time.perf_counter()
    for i, (kind, arg) in enumerate(work):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        if kind == "pool":
            pool, value = _op_pool(m)
        elif kind == "exceptional":
            value = _op_exceptional(m, arg)
        elif kind == "compose":
            value = _op_compose(m)
        else:
            value = _op_triple(m, *(pool[name] for name in arg))
        outcomes.append((kind, arg, time.perf_counter() - start, value))
    result.wall_s = time.perf_counter() - first
    if tracer is not None:
        tracer.op = None

    for kind, arg, seconds, value in outcomes:
        if kind == "pool":
            ok, label = value == 1, "pool"
        elif kind == "exceptional":
            counts, members, serialized = value
            ok = counts == TERM_COUNTS[arg] and all(members)
            if arg == 12:
                ok = ok and serialized + "\n" == golden
            label = f"exceptional:{arg}"
        elif kind == "compose":
            ok, label = value is True, "compose:e12,e12"
        else:
            ok, label = value is True, "triple:" + ",".join(arg)
        result.op(label, seconds, ok)
    return result
