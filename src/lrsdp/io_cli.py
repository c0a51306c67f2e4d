"""File formats (SDPA sparse, Gset graphs, JSON results, CSV traces) and
the command-line interface. The arrays of a JSON result are base64 strings
of their little-endian bytes, bit for bit, in the dtypes of the problem's
``ConstraintSet``: "<i4" triplet rows, columns and constraint offsets and
"<f8" values. Problems read from either format, and generated ones, reach
the set with their arrays in its dtypes and order, and are kept without a
copy.
"""

from __future__ import annotations

import argparse
import base64
import csv
import io
import json
import sys
import warnings
from dataclasses import asdict, astuple, fields
from itertools import islice

import numpy as np

from . import alm, generators, problem as prob
from .alm import SolverOptions
from .generators import WeightedGraph
from .problem import (ConstraintSet, ManifoldKind, ProblemError, SdpProblem,
                      SparseSymMatrix)

TRACE_COLUMNS = tuple(f.name for f in fields(alm.IterationTrace))


class FormatError(ProblemError):
    """Malformed input file; message carries the offending line number."""


# --- SDPA sparse format (single PSD block) -----------------------------

_OBJECTIVE = "*lrsdp-objective"
_SEPARATORS = str.maketrans(",{}", "   ")
_BLOCK = 1 << 14  # entry lines per np.loadtxt call, or per write
_ENTRY = np.dtype([("matno", "<i8"), ("blkno", "<i8"), ("i", "<i8"),
                   ("j", "<i8"), ("value", "<f8")])


def _sdpa_numbers(line):
    return line.translate(_SEPARATORS).split()


def _entry_line(path, no, text, m, n):
    """The entry line ``text``, line ``no``, parsed and checked alone:
    FormatError names the line where it is malformed."""
    toks = _sdpa_numbers(text)
    try:
        matno, blkno, i, j = (int(t) for t in toks[:4])
        val = float(toks[4])
        if len(toks) != 5:
            raise ValueError
    except (ValueError, IndexError):
        raise FormatError(f"{path}:{no}: bad entry line: {text!r}")
    if blkno != 1:
        raise FormatError(f"{path}:{no}: block {blkno} does not exist")
    if not 0 <= matno <= m:
        raise FormatError(f"{path}:{no}: matrix index {matno} out of range")
    if not (1 <= i <= n and i <= j <= n):
        raise FormatError(
            f"{path}:{no}: entry ({i}, {j}) outside upper triangle of "
            f"a {n} x {n} block")
    return matno, blkno, i, j, val


def _entry_block(path, numbers, block, m, n):
    """The entry lines ``block``, on lines ``numbers``, as one ``_ENTRY``
    array: one np.loadtxt and vectorized checks. A block that fails
    either is parsed line by line, which names its first bad line, or
    reads what Python's int and float accept and numpy's parser does
    not (1_000)."""
    try:
        with warnings.catch_warnings():  # numpy < 2 reads "1.0" as an int
            warnings.simplefilter("error", DeprecationWarning)
            e = np.loadtxt(io.StringIO("\n".join(block).translate(
                _SEPARATORS)), dtype=_ENTRY, comments=None, ndmin=1)
        i, j = e["i"], e["j"]
        if np.all((e["blkno"] == 1) & (e["matno"] >= 0) & (e["matno"] <= m)
                  & (i >= 1) & (i <= j) & (j <= n)):
            return e
    except (ValueError, DeprecationWarning):
        pass
    return np.array([_entry_line(path, no, text, m, n)
                     for no, text in zip(numbers, block)], _ENTRY)


def read_sdpa(path):
    """Parse the sparse SDPA dialect restricted to one PSD block.

    Line 1: m. Line 2: number of blocks (must be 1). Line 3: block size n.
    Line 4: the m values of b. Then entry lines "matno blkno i j value" with
    matno 0 for the cost and k in 1..m for constraint k, 1-based
    upper-triangular indices. Duplicate entries are summed. The manifold is
    always Free; manifold kinds are a solver flag, not part of the format.
    Lines that start with '"' or '*' are comments. A line
    "*lrsdp-objective sign offset" sets the reported objective
    sign <C, X> + offset, which SDPA cannot express; 1 and 0 without one.

    A generator reads the lines once and drops comments and blank lines.
    The entry lines reach numpy ``_BLOCK`` at a time (``_entry_block``),
    with no Python object kept per entry; an error still names its line.
    """
    sign, offset = 1.0, 0.0
    numbers = []  # the line number of each content line read, until cleared

    def content():  # the text of each content line, read once
        nonlocal sign, offset
        with open(path) as fh:
            for no, ln in enumerate(fh, start=1):
                text = ln.strip()
                if text[:1] not in ('"', "*", ""):
                    numbers.append(no)
                    yield text
                elif ln.startswith(_OBJECTIVE):
                    try:
                        sign, offset = map(float, ln[len(_OBJECTIVE):].split())
                    except ValueError:
                        raise FormatError(f"{path}:{no}: bad objective "
                                          f"line: {text!r}")

    lines = content()
    head = [next(lines, None) for _ in range(3)]
    if None in head:
        raise FormatError(f"{path}: fewer than three header lines")

    def header_int(pos, what):
        try:
            return int(_sdpa_numbers(head[pos])[0])
        except (ValueError, IndexError):
            raise FormatError(
                f"{path}:{numbers[pos]}: bad {what} line: {head[pos]!r}")

    m = header_int(0, "constraint count")
    if m < 0:
        raise FormatError(
            f"{path}:{numbers[0]}: constraint count must not be negative")
    nblocks = header_int(1, "block count")
    if nblocks != 1:
        raise FormatError(
            f"{path}:{numbers[1]}: expected one block, got {nblocks}")
    n = header_int(2, "block size")
    if n <= 0:
        raise FormatError(f"{path}:{numbers[2]}: block size must be positive")
    # m = 0 has no rhs line (a blank one is dropped with the other blank
    # lines), and a file that ends after its header has no values; either
    # is reported on the block size line
    text = next(lines, "") if m else ""
    no = numbers[-1]
    try:
        b = np.array([float(t) for t in _sdpa_numbers(text)])
    except ValueError:
        raise FormatError(f"{path}:{no}: bad rhs line: {text!r}")
    if b.size != m:
        raise FormatError(
            f"{path}:{no}: expected {m} rhs values, got {b.size}")

    # the entry lines, _BLOCK at a time: per block one int64 key per
    # entry, its position in the (m + 1) x n x n stack, and its value; the
    # empty first key array checks that the stack's size fits an int64
    shape = (m + 1, n, n)
    keys = [np.ravel_multi_index(np.zeros((3, 0), np.intp), shape)]
    vals = [np.zeros(0)]
    while True:
        numbers.clear()
        block = []
        try:
            block.extend(islice(lines, _BLOCK))
        except FormatError:  # a bad objective line, after the lines read
            if block:  # a bad entry line before it is named first
                _entry_block(path, numbers, block, m, n)
            raise
        if not block:
            break
        e = _entry_block(path, numbers, block, m, n)
        keys.append(np.ravel_multi_index(
            (e["matno"], e["i"] - 1, e["j"] - 1), shape))
        vals.append(e["value"].copy())  # not a view that keeps the block
    key, v = np.concatenate(keys), np.concatenate(vals)
    del keys, vals

    # one entry per position, duplicates summed in file order; keys that
    # increase, as write_sdpa's do, need no sort, and adding 0.0 makes
    # -0.0 the 0.0 that the sum makes it
    if np.all(key[1:] > key[:-1]):
        v += 0.0
    else:
        key, inv = np.unique(key, return_inverse=True)
        v = np.bincount(inv, weights=v, minlength=key.size)
    # int32 rows, columns and offsets of the A_i, which the set keeps as
    # they are: matrix k holds the keys from k n^2 on, and a key is
    # i n + j past that; each division writes int32, with no int64 array
    # per entry beyond the key, divided in place
    bounds = np.searchsorted(key, np.arange(m + 2) * (n * n))
    nc = bounds[1]  # matrix 0 is the cost
    start = (bounds[1:] - nc).astype(np.int32)
    rows, cols = (np.empty(key.size, np.int32) for _ in range(2))
    np.remainder(key, n, out=cols, casting="unsafe")
    key //= n
    np.remainder(key, n, out=rows, casting="unsafe")
    del key
    C = SparseSymMatrix(n, rows[:nc], cols[:nc], v[:nc])
    A = ConstraintSet(n, m, start, rows[nc:], cols[nc:], v[nc:])
    return SdpProblem(n, C, A, b, ManifoldKind.FREE, objective_sign=sign,
                      objective_offset=offset)


def _decimal(x, base):
    """The decimal text of the ints x + base, none negative: an
    (x.size, w) table of ASCII digits, right-aligned, and the mask of the
    digits each row shows."""
    x = x.astype(np.int64)[:, None] + base
    power = 10 ** np.arange(len(str(int(x.max()))) - 1, -1, -1)
    table = (x // power % 10 + ord("0")).astype(np.uint8)
    return table, (x >= power) | (power == 1)


def _shortest(v):
    """The shortest round-trip text of the floats ``v``, ``repr``'s, in
    ``_decimal``'s form, left-aligned: one ``repr`` per distinct bit
    pattern, so -0.0 keeps its sign."""
    bits, inv = np.unique(np.ascontiguousarray(v).view(np.int64),
                          return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], "S")
    table = text.view(np.uint8).reshape(bits.size, -1)[inv]
    return table, table != 0


def _chars(text, size):
    """``size`` rows of the bytes ``text``, in ``_decimal``'s form."""
    table = np.frombuffer(text, np.uint8)
    return (np.broadcast_to(table, (size, table.size)),
            np.broadcast_to(True, (size, table.size)))


def _rows(*fields):
    """The text of rows made of ``fields``, each a table of ASCII
    characters and the mask of those it shows, read row by row."""
    table, shown = (np.concatenate(f, axis=1) for f in zip(*fields))
    return table[shown].tobytes()


def write_sdpa(problem, path):
    """Emit the exact dialect read_sdpa accepts, entries sorted by
    (matno, i, j), values at shortest round-trip precision, with an
    ``_OBJECTIVE`` line first unless the sign is 1 and the offset 0.

    The values of b and the entry lines are formatted ``_BLOCK`` at a
    time from the arrays, each triplet's matrix found in the set's
    ``start``, with no Python object per entry."""
    sign, offset = problem.objective_sign, problem.objective_offset
    with open(path, "wb") as fh:
        if (sign, offset) != (1.0, 0.0):
            fh.write(f"{_OBJECTIVE} {sign!r} {offset!r}\n".encode())
        fh.write(f"{problem.m}\n1\n{problem.n}\n".encode())
        for t in range(0, problem.m, _BLOCK):
            b = problem.b[t:t + _BLOCK]
            text = _rows(_chars(b" ", b.size), _shortest(b))
            fh.write(text[1:] if t == 0 else text)  # no space before b_1
        fh.write(b"\n")
        cost = ConstraintSet.from_matrices(problem.n, [problem.C])
        for matno, S in ((0, cost), (1, problem.A)):
            for t in range(0, S.rows.size, _BLOCK):
                end = min(t + _BLOCK, S.rows.size)
                k = np.searchsorted(S.start, np.arange(t, end), "right")
                fh.write(_rows(
                    _decimal(k, matno - 1), _chars(b" 1 ", end - t),
                    _decimal(S.rows[t:end], 1), _chars(b" ", end - t),
                    _decimal(S.cols[t:end], 1), _chars(b" ", end - t),
                    _shortest(S.vals[t:end]), _chars(b"\n", end - t)))


def read_gset(path):
    """Parse the Gset text format: header "N E", then E lines "i j w"."""
    edges = []
    with open(path) as fh:
        lines = ((no, ln.strip()) for no, ln in enumerate(fh, start=1)
                 if ln.strip())
        no, text = next(lines, (None, None))
        if text is None:
            raise FormatError(f"{path}: empty file")
        toks = text.split()
        try:
            N, E = int(toks[0]), int(toks[1])
        except (ValueError, IndexError):
            raise FormatError(f"{path}:{no}: bad header line: {text!r}")
        for no, text in lines:
            toks = text.split()
            try:
                i, j = int(toks[0]), int(toks[1])
                w = float(toks[2]) if len(toks) > 2 else 1.0
            except (ValueError, IndexError):
                raise FormatError(f"{path}:{no}: bad edge line: {text!r}")
            if i == j:
                raise FormatError(f"{path}:{no}: self-loop on node {i}")
            edges.append((min(i, j), max(i, j), w))
    if len(edges) != E:
        raise FormatError(
            f"{path}: header promises {E} edges, found {len(edges)}")
    try:
        return WeightedGraph(N, tuple(edges))
    except ProblemError as exc:
        raise FormatError(f"{path}: {exc}")


# --- result documents ---------------------------------------------------

_JSON_TYPES = {dict: "an object", int: "an integer",
               (int, float): "a number", str: "a string"}
_DTYPES = {"start": "<i4", "rows": "<i4", "cols": "<i4"}  # else "<f8"


def _doc_field(doc, key, kind):
    """``doc[key]`` checked to have the JSON type ``kind``; a malformed
    document raises ProblemError here instead of a TypeError later."""
    if not isinstance(doc, dict):
        raise ProblemError(f"expected an object with field {key!r}, "
                           f"got {type(doc).__name__}")
    if key not in doc:
        raise ProblemError(f"missing field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ProblemError(f"field {key!r} must be {_JSON_TYPES[kind]}, "
                           f"got {type(value).__name__}")
    return value


def _encode(owner, key):
    """The array ``owner.<key>`` as the document field ``key``."""
    return base64.b64encode(np.ascontiguousarray(
        getattr(owner, key), _DTYPES.get(key, "<f8"))).decode("ascii")


def _doc_array(doc, key):
    """The array ``doc[key]`` of a result document, read-only, 1-D, of
    the field's dtype; ProblemError names the field where it is no such
    array."""
    text = _doc_field(doc, key, str)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character beyond ASCII
        raise ProblemError(f"field {key!r} is not valid base64")
    dtype = np.dtype(_DTYPES.get(key, "<f8"))
    if len(raw) % dtype.itemsize:
        raise ProblemError(f"field {key!r} holds {len(raw)} bytes, not a "
                           f"multiple of {dtype.itemsize}")
    return np.frombuffer(raw, dtype)


def _doc_triplets(doc, key, n, m=None):
    """The ConstraintSet of the triplet object ``doc[key]``, its arrays
    taken as written, and kept with no copy: the A_i with their "start"
    offsets, A_k holding the triplets start[k]:start[k + 1], or, with no
    ``m``, C as the one matrix of a set."""
    doc = _doc_field(doc, key, dict)
    rows = _doc_array(doc, "rows")
    start = [0, rows.size] if m is None else _doc_array(doc, "start")
    return ConstraintSet(n, 1 if m is None else m, start, rows,
                         _doc_array(doc, "cols"), _doc_array(doc, "vals"))


def result_document(sdp, solution, options):
    """JSON-serializable record of a solve: problem, options echo, solution
    data (including the factor and multipliers, so residues can be
    recomputed), residues and trace rows; arrays as base64 strings."""
    return {
        "problem": {
            "n": sdp.n, "m": sdp.m, "manifold": sdp.manifold.value,
            "objective_sign": sdp.objective_sign,
            "objective_offset": sdp.objective_offset,
            "C": {k: _encode(sdp.C, k) for k in ("rows", "cols", "vals")},
            "A": {k: _encode(sdp.A, k)
                  for k in ("start", "rows", "cols", "vals")},
            "b": _encode(sdp, "b"),
        },
        # numpy scalars, which the options accept, as plain Python numbers
        "options": {key: value.item() if isinstance(value, np.generic)
                    else value for key, value in asdict(options).items()},
        "objective": solution.objective,
        "residues": {"eta_p": solution.residues.eta_p,
                     "eta_d": solution.residues.eta_d,
                     "eta_g": solution.residues.eta_g,
                     "eta_max": solution.residues.eta_max},
        "lambda_min": solution.lambda_min,
        "lambda_max": solution.lambda_max,
        "status": solution.status,
        "iterations": solution.iterations,
        "wall_time": solution.wall_time,
        "Y": _encode(solution.Y, "Y"),
        "y": _encode(solution, "y"),
        "z": _encode(solution, "z"),
        "trace": [asdict(row) for row in solution.trace],
    }


def problem_from_document(doc):
    """The SdpProblem stored in a result document; a field of the wrong
    type or shape raises ProblemError, as does the A_i's "index" array of
    the former format, which "start" replaces."""
    pd = _doc_field(doc, "problem", dict)
    if "index" in _doc_field(pd, "A", dict):
        raise ProblemError("field 'index' is not read: the A_i hold their "
                           "offsets in 'start'")
    n = _doc_field(pd, "n", int)
    manifold = _doc_field(pd, "manifold", str)
    kinds = [kind.value for kind in ManifoldKind]
    if manifold not in kinds:
        raise ProblemError(f"field 'manifold' must be one of {kinds}, "
                           f"got {manifold!r}")
    return SdpProblem(
        n, _doc_triplets(pd, "C", n)[0],
        _doc_triplets(pd, "A", n, _doc_field(pd, "m", int)),
        _doc_array(pd, "b"), ManifoldKind(manifold),
        objective_sign=_doc_field(pd, "objective_sign", (int, float)),
        objective_offset=_doc_field(pd, "objective_offset", (int, float)))


def _finite_or_null(value):
    """``value`` with None, JSON's null, for each NaN or infinite float."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    finite = not isinstance(value, float) or np.isfinite(value)
    return value if finite else None


def write_result(doc, path):
    with open(path, "w") as fh:
        json.dump(_finite_or_null(doc), fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in astuple(row)])


def check_document(doc, tol):
    """Recompute the KKT residues of a stored solution from its own data.

    The dual slack is rebuilt from the stored multipliers,
    S = C - A*(y) - B*(z), independent of the penalty bookkeeping.
    A malformed array, or y, z or Y of the wrong size, raises ProblemError;
    a ``tol`` that is not positive and finite raises ValueError.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    sdp = problem_from_document(doc)
    y, z = _doc_array(doc, "y"), _doc_array(doc, "z")
    for key, v, size in ("y", y, sdp.m), ("z", z, sdp.manifold_rhs().size):
        if v.size != size:
            raise ProblemError(f"field {key!r} must have length {size}, "
                               f"got {v.size}")
    vals = np.linalg.eigvalsh(prob.dual_slack(sdp, y, z))
    # S reads y and z only; Y serves eta_p and eta_g
    Y = _doc_array(doc, "Y")
    if Y.size == 0 or Y.size % sdp.n:
        raise ProblemError(f"field 'Y' holds {Y.size} values, not {sdp.n} x p")
    res = prob.kkt_residues(sdp, Y.reshape(sdp.n, -1), y, z,
                            float(vals[0]), float(vals[-1]))
    return res, res.eta_max <= tol


# --- command-line interface ---------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(f"{self.prog}: error: {message}\n"
                          f"{self.format_usage()}")


def _add_family_flags(p):
    p.add_argument("--q", type=int, default=10,
                   help="number of binary/sphere variables")
    p.add_argument("--s", type=int, default=3, help="completion rows")
    p.add_argument("--t", type=int, default=3, help="completion columns")
    p.add_argument("--rank", type=int, default=1, help="completion rank")
    p.add_argument("--samples", type=int, default=None,
                   help="completion sample count (default: all entries)")


def _add_solver_flags(p):
    defaults = SolverOptions()
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--delta-ne", type=int, default=defaults.delta_ne)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--max-iters", type=int, dest="max_outer_iters",
                   default=defaults.max_outer_iters)
    p.add_argument("--time-limit", type=float, dest="max_time",
                   default=defaults.max_time)


def _build_parser():
    parser = _Parser(prog="lrsdp",
                     description="Low-rank SDP solver and benchmark tools")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an SDP", add_help=True)
    ps.add_argument("--input", help="SDPA sparse file")
    ps.add_argument("--generate", metavar="FAMILY",
                    choices=sorted(_FAMILIES),
                    help="built-in family: " + ", ".join(sorted(_FAMILIES)))
    ps.add_argument("--manifold",
                    choices=[k.value for k in ManifoldKind], default=None,
                    help="manifold kind (default: family's natural kind, "
                         "or free for --input)")
    _add_family_flags(ps)
    _add_solver_flags(ps)
    ps.add_argument("--trace", metavar="FILE.csv", help="write trace CSV")
    ps.add_argument("--output", metavar="FILE.json", help="write result JSON")

    pg = sub.add_parser("generate", help="emit an SDPA file from a family")
    pg.add_argument("family", choices=sorted(_FAMILIES))
    _add_family_flags(pg)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--output", required=True, metavar="FILE.dat-s")

    pc = sub.add_parser("check", help="recompute residues of a stored result")
    pc.add_argument("result", metavar="FILE.json")
    pc.add_argument("--tol", type=float, default=None,
                    help="default: the tol the result was solved at")
    return parser


def _completion(args):
    samples = args.s * args.t if args.samples is None else args.samples
    _, entries = generators.random_completion(
        args.s, args.t, args.rank, samples, args.seed)
    return generators.gen_matrix_completion(args.s, args.t, entries)


# each built-in family's problem from the parsed family flags and --seed
_FAMILIES = {
    "maxcut-edge": lambda args: generators.gen_maxcut(
        generators.unit_edge_graph()),
    "maxcut-triangle": lambda args: generators.gen_maxcut(
        generators.unit_triangle_graph()),
    "bqp": lambda args: generators.gen_bqp_moment(
        *generators.random_bqp(args.q, args.seed)),
    "quartic": lambda args: generators.gen_quartic_sphere(
        args.q, generators.random_quartic(args.q, args.seed)),
    "completion": _completion,
}


def _run_solve(args):
    if (args.input is None) == (args.generate is None):
        raise _UsageError("solve needs exactly one of --input or --generate")
    opts = SolverOptions(**{f.name: getattr(args, f.name)
                            for f in fields(SolverOptions)})
    opts.validate()  # before --seed reaches a generator
    sdp = _FAMILIES[args.generate](args) if args.input is None \
        else read_sdpa(args.input)
    if args.manifold is not None \
            and ManifoldKind(args.manifold) is not sdp.manifold:
        sdp = SdpProblem(sdp.n, sdp.C, sdp.A, sdp.b,
                         ManifoldKind(args.manifold), sdp.objective_sign,
                         sdp.objective_offset)
    solution = alm.solve(sdp, opts)
    if args.output:
        write_result(result_document(sdp, solution, opts), args.output)
    if args.trace:
        write_trace_csv(solution.trace, args.trace)
    r = solution.residues
    print(f"status={solution.status} objective={solution.objective!r} "
          f"eta_max={r.eta_max:.3e} p={solution.Y.p} "
          f"iterations={solution.iterations} time={solution.wall_time:.2f}s")
    return 0 if solution.status == "converged" else 2


def _run_generate(args):
    sdp = _FAMILIES[args.family](args)
    write_sdpa(sdp, args.output)
    print(f"wrote {args.output}: n={sdp.n} m={sdp.m}")
    return 0


def _solved_tol(doc):
    """The tol in a result document's options, or the solver's default
    when the document records none."""
    if isinstance(doc, dict) and "options" in doc:
        options = _doc_field(doc, "options", dict)
        if "tol" in options:
            return _doc_field(options, "tol", (int, float))
    return SolverOptions().tol


def _run_check(args):
    with open(args.result) as fh:
        doc = json.load(fh)
    tol = _solved_tol(doc) if args.tol is None else args.tol
    res, ok = check_document(doc, tol)
    print(f"eta_p={res.eta_p:.3e} eta_d={res.eta_d:.3e} "
          f"eta_g={res.eta_g:.3e} eta_max={res.eta_max:.3e} "
          f"tol={tol!r} {'ok' if ok else 'FAIL'}")
    return 0 if ok else 2


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "generate":
            return _run_generate(args)
        return _run_check(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ProblemError, KeyError, ValueError, MemoryError) as exc:
        print(f"lrsdp: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
