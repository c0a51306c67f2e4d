"""File formats and command-line interface."""

import base64
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_MANIFOLDS, matrix_numbers, random_sym_triplets
from lrsdp import alm, generators as gen, io_cli, manifolds, problem as prob
from lrsdp.io_cli import (FormatError, check_document, cli_main,
                          problem_from_document, read_gset, read_sdpa,
                          result_document, write_sdpa, write_trace_csv,
                          TRACE_COLUMNS, _doc_array)
from lrsdp.problem import ManifoldKind, SdpProblem, SparseSymMatrix


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN, Infinity and -Infinity,
    which Python's json reads by default, raise ValueError."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


# the dtype of each array of a result document other than "<f8"
_DOC_DTYPES = {"start": "<i4", "rows": "<i4", "cols": "<i4"}


def _decoded(doc, key):
    """A writable copy of the array ``doc[key]`` of a result document:
    "<i4" for triplet rows and columns and for the offsets "start", "<f8"
    for every other array."""
    return np.frombuffer(base64.b64decode(doc[key]),
                         _DOC_DTYPES.get(key, "<f8")).copy()


def _encoded(values):
    return base64.b64encode(np.ascontiguousarray(values)).decode("ascii")


def _edit(doc, key, edit):
    """Decode the array ``doc[key]``, apply ``edit`` and store the result
    re-encoded: the array ``edit`` returns, or the copy it edited in
    place where it returns None."""
    values = _decoded(doc, key)
    out = edit(values)
    doc[key] = _encoded(values if out is None else out)


def _set(k, value):
    return lambda values: values.__setitem__(k, value)


# -0.0, the least subnormal, the largest subnormal and the largest float
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@lru_cache(maxsize=None)
def _solution(family):
    """The solution of one solve and its document as JSON text: "edge"
    (Max-Cut on one edge) or "bqp" (q = 4: n = 11, m = 57)."""
    sdp = gen.gen_maxcut(gen.unit_edge_graph()) if family == "edge" \
        else gen.gen_bqp_moment(*gen.random_bqp(4, 0))
    opts = alm.SolverOptions()
    sol = alm.solve(sdp, opts)
    return sol, json.dumps(result_document(sdp, sol, opts))


def _list_form(doc):
    """``doc`` as documents with one JSON list per array were written."""
    for part, keys in ((doc["problem"]["C"], ("rows", "cols", "vals")),
                       (doc["problem"]["A"], ("start", "rows", "cols",
                                              "vals")),
                       (doc["problem"], ("b",)), (doc, ("y", "z"))):
        for key in keys:
            part[key] = _decoded(part, key).tolist()
    doc["Y"] = _decoded(doc, "Y").reshape(doc["problem"]["n"], -1).tolist()


def _index_form(doc):
    """``doc`` as documents with one "<i8" constraint index per triplet,
    in place of the offsets "start", were written."""
    A = doc["problem"]["A"]
    start = _decoded(A, "start")
    A["index"] = _encoded(np.repeat(np.arange(start.size - 1),
                                    np.diff(start)))
    del A["start"]


_BAD_START = "start must hold 58 offsets from 0 up to "


class TestSdpa:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "min.dat-s"
        path.write_text("1\n1\n2\n1.0\n1 1 1 1 1.0\n")
        sdp = read_sdpa(path)
        assert (sdp.n, sdp.m) == (2, 1)
        assert sdp.manifold is ManifoldKind.FREE
        assert sdp.b[0] == 1.0
        assert np.allclose(sdp.A[0].to_dense(),
                           np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "dup.dat-s"
        path.write_text("0\n1\n2\n\n0 1 1 2 1.0\n0 1 1 2 0.5\n")
        sdp = read_sdpa(path)
        assert sdp.C.to_dense()[0, 1] == 1.5

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.dat-s"
        path.write_text('* comment\n"another\n1\n1\n1\n2.0\n1 1 1 1 1.0\n')
        sdp = read_sdpa(path)
        assert sdp.b[0] == 2.0

    @pytest.mark.parametrize("body,needle", [
        ("1\n2\n2\n1.0\n", "block"),
        ("1\n1\n2\n1.0 2.0\n", "rhs"),
        ("1\n1\n2\n1.0\n1 1 3 3 1.0\n", ":5:"),
        ("1\n1\n2\n1.0\n1 1 2 1 1.0\n", ":5:"),
        ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", "out of range"),
        ("1\n1\n2\n1.0\n1 2 1 1 1.0\n", "block"),
        ("1\n1\n2\n1.0\nx y z\n", ":5:"),
        ("-1\n1\n2\n1.0\n", ":1: constraint count must not be negative"),
        ("1\n1\n", "fewer than three header lines"),
        ("1\n1\n2\n", ":3: expected 1 rhs values, got 0"),
        ("x\n1\n2\n1.0\n", ":1: bad constraint count line"),
        ("1\n1\n0\n1.0\n", ":3: block size must be positive"),
        ("1\n1\n2\nabc\n", ":4: bad rhs line"),
        ("1\n1\n2\n1.0\n1 1 1 1 1.0 2.0\n", ":5: bad entry line"),
        ("*lrsdp-objective -1.0\n1\n1\n2\n1.0\n", ":1: bad objective line"),
        ("1\n1\n2\n1.0\n*lrsdp-objective 1 0 2\n", ":5: bad objective"),
        ("1\n1\n2\n*lrsdp-objective x 0\n1.0\n", ":4: bad objective"),
    ])
    def test_malformed_rejected_with_location(self, tmp_path, body, needle):
        path = tmp_path / "bad.dat-s"
        path.write_text(body)
        with pytest.raises(FormatError) as err:
            read_sdpa(path)
        assert needle in str(err.value)

    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("bad,message", [
        ("1 1 3 3 1.0", "entry (3, 3) outside upper triangle of a 2 x 2 "
                        "block"),
        ("1 1 2 1 1.0", "entry (2, 1) outside upper triangle"),
        ("2 1 1 1 1.0", "matrix index 2 out of range"),
        ("1 2 1 1 1.0", "block 2 does not exist"),
        ("x y z", "bad entry line: 'x y z'"),
        ("1 1 1 1 1.0 2.0", "bad entry line: '1 1 1 1 1.0 2.0'"),
        ("1.0 1 1 1 1.0", "bad entry line: '1.0 1 1 1 1.0'"),
        ("*lrsdp-objective 1 0 2", "bad objective line"),
        # the first fault in file order is named, the objective line's
        # too: it is read after the entry line but in the same block
        ("1 1 1 1 x\n*lrsdp-objective 1", "bad entry line: '1 1 1 1 x'"),
        ("*lrsdp-objective 1\n1 1 1 1 x", "bad objective line"),
    ], ids=["below-n", "lower-triangle", "matrix-index", "block", "words",
            "six-fields", "float-index", "objective",
            "entry-then-objective", "objective-then-entry"])
    def test_bad_line_named_in_any_block(self, tmp_path, monkeypatch, bad,
                                         message, pad):
        # with blocks of two entry lines, the bad line ends the first
        # block, starts the second or follows in it: the same message, on
        # its own line number, as a file read one line at a time
        monkeypatch.setattr(io_cli, "_BLOCK", 2)
        path = tmp_path / "bad.dat-s"
        path.write_text("1\n1\n2\n1.0\n" + "1 1 1 2 1.0\n" * pad
                        + bad + "\n1 1 2 2 1.0\n")
        with pytest.raises(FormatError) as err:
            read_sdpa(path)
        assert f"{path}:{5 + pad}: {message}" in str(err.value)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_parse_matches_a_line_by_line_read(self, tmp_path_factory,
                                                     data):
        # shuffled entries with duplicates, or entries in increasing order,
        # one side of a block boundary or the other, between comments,
        # blank lines and objective lines, with commas and braces: the
        # problem has the bytes of a line-by-line read
        block = data.draw(st.integers(1, 4))
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
        count = data.draw(st.sampled_from([block - 1, block, block + 1]))
        spots = [(k, i, j) for k in range(m + 1) for i in range(1, n + 1)
                 for j in range(i, n + 1)]
        if data.draw(st.booleans()):
            keys = sorted(data.draw(st.lists(
                st.sampled_from(spots), min_size=min(count, len(spots)),
                max_size=min(count, len(spots)), unique=True)))
        else:
            keys = data.draw(st.lists(st.sampled_from(spots),
                                      min_size=count, max_size=count))
        values = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.0]),
                           st.floats(-1e6, 1e6))
        sep = st.sampled_from([" ", "  ", "\t", ",", ", ", " ,"])
        filler = st.sampled_from(["", "   ", "* a comment", '"a comment',
                                  "*lrsdp-objective -1.0 2.5",
                                  "*lrsdp-objective 1 -0.0"])
        lines = [str(m), "1", str(n)] + (
            [" ".join(repr(v) for v in data.draw(st.lists(
                values, min_size=m, max_size=m)))] if m else [])
        for k, i, j in keys:
            tokens = [str(k), "1", str(i), str(j), repr(data.draw(values))]
            text = tokens[0] + "".join(data.draw(sep) + t for t in tokens[1:])
            if data.draw(st.booleans()):
                text = "{" + text + "}"
            lines += data.draw(st.lists(filler, max_size=2)) + [text]
        path = tmp_path_factory.getbasetemp() / "block.dat-s"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(io_cli, "_BLOCK", block):
            sdp = read_sdpa(path)
        want = _line_by_line(lines)
        got = [(0, r, c, v) for r, c, v in zip(sdp.C.rows.tolist(),
                                               sdp.C.cols.tolist(),
                                               sdp.C.vals.tolist())]
        got += [(k + 1, r, c, v) for k, r, c, v in zip(
            matrix_numbers(sdp.A).tolist(), sdp.A.rows.tolist(),
            sdp.A.cols.tolist(), sdp.A.vals.tolist())]
        assert [t[:3] for t in got] == [t[:3] for t in want["entries"]]
        assert np.array([t[3] for t in got]).tobytes() \
            == np.array([t[3] for t in want["entries"]]).tobytes()
        assert (sdp.n, sdp.m) == (want["n"], want["m"])
        assert sdp.b.tobytes() == np.array(want["b"], float).tobytes()
        assert _objective_bytes(sdp) == np.array(want["objective"]).tobytes()

    # a sign and offset, b with -0.0, a subnormal and exponents, C, an
    # empty A_2, an A_4 given out of order, and ten or more rows, columns
    # and matrices
    GOLDEN = """*lrsdp-objective -1.0 0.25
11
1
12
1.0 -0.0 1e+16 0.1 5e-324 2.0 3.0 4.0 1e-05 123456.789 -7.0
0 1 1 1 -1.5
0 1 1 12 0.1
0 1 10 11 1e+16
1 1 1 1 1.0
1 1 1 12 -0.0
3 1 2 2 1.0
3 1 2 12 -0.0
4 1 1 2 0.3333333333333333
4 1 3 4 5e-324
4 1 11 12 -2.5e-07
""" + "".join(f"{k + 1} 1 {k} {k} 1.0\n{k + 1} 1 {k} 12 -0.0\n"
              for k in range(4, 11))

    @pytest.mark.parametrize("block", [1, 4, 1 << 14])
    def test_written_text_is_golden(self, block, tmp_path):
        # the entry lines and b are formatted a block at a time; any block
        # size gives these bytes, which a line-by-line repr wrote
        n = 12
        A = [SparseSymMatrix.from_triplets(n, [(k, k, 1.0), (k, 11, -0.0)])
             for k in range(10)]
        A.insert(1, SparseSymMatrix.from_triplets(n, []))
        A[3] = SparseSymMatrix.from_triplets(
            n, [(2, 3, 5e-324), (0, 1, 1 / 3), (10, 11, -2.5e-7)])
        C = SparseSymMatrix.from_triplets(
            n, [(0, 0, -1.5), (0, 11, 0.1), (9, 10, 1e16)])
        b = [1.0, -0.0, 1e16, 0.1, 5e-324, 2.0, 3.0, 4.0, 1e-5, 123456.789,
             -7.0]
        sdp = SdpProblem(n, C, A, b, ManifoldKind.FREE, objective_sign=-1.0,
                         objective_offset=0.25)
        path = tmp_path / "g.dat-s"
        with mock.patch.object(io_cli, "_BLOCK", block):
            write_sdpa(sdp, path)
        assert path.read_bytes() == self.GOLDEN.encode()
        edge = tmp_path / "e.dat-s"
        with mock.patch.object(io_cli, "_BLOCK", block):
            write_sdpa(gen.gen_maxcut(gen.unit_edge_graph()), edge)
        assert edge.read_bytes() == (b"*lrsdp-objective -1.0 0.0\n0\n1\n2\n"
                                     b"\n0 1 1 1 -0.25\n0 1 1 2 0.25\n"
                                     b"0 1 2 2 -0.25\n")

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_written_text_matches_a_line_by_line_repr(self, tmp_path_factory,
                                                      data):
        # the block writer against the per-line f-string writer it
        # replaced, kept here as the oracle: random sizes, empty matrices,
        # edge floats and any block size
        n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 12))
        iu, ju = np.triu_indices(n)

        def matrix():
            keep = np.array(data.draw(st.lists(
                st.booleans(), min_size=iu.size, max_size=iu.size)))
            vals = data.draw(st.lists(_FLOATS, min_size=int(keep.sum()),
                                      max_size=int(keep.sum())))
            return SparseSymMatrix(n, iu[keep], ju[keep],
                                   np.array(vals, float))

        b = np.array(data.draw(st.lists(_FLOATS, min_size=m, max_size=m)),
                     float)
        sdp = SdpProblem(n, matrix(), [matrix() for _ in range(m)], b,
                         ManifoldKind.FREE,
                         objective_sign=data.draw(st.sampled_from([1.0,
                                                                   -1.0])))
        path = tmp_path_factory.getbasetemp() / "w.dat-s"
        with mock.patch.object(io_cli, "_BLOCK",
                               data.draw(st.integers(1, 40))):
            write_sdpa(sdp, path)
        head = "" if sdp.objective_sign == 1.0 \
            else "*lrsdp-objective -1.0 0.0\n"
        want = head + f"{m}\n1\n{n}\n" + " ".join(
            repr(float(v)) for v in b) + "\n"
        for matno, mats in ((0, [sdp.C]), (1, list(sdp.A))):
            for k, M in enumerate(mats):
                order = np.lexsort((M.cols, M.rows))
                want += "".join(
                    f"{k + matno} 1 {r + 1} {c + 1} {v!r}\n"
                    for r, c, v in zip(M.rows[order].tolist(),
                                       M.cols[order].tolist(),
                                       M.vals[order].tolist()))
        assert path.read_bytes() == want.encode()

    def test_round_trip(self, tmp_path, rng):
        from conftest import random_problem
        sdp = random_problem(5, 3, ManifoldKind.FREE, rng)
        path = tmp_path / "rt.dat-s"
        write_sdpa(sdp, path)
        back = read_sdpa(path)
        # sign 1 and offset 0 are SDPA's own: no objective line
        assert path.read_text().startswith("3\n")
        assert _objective_bytes(back) == _objective_bytes(sdp)
        assert (back.n, back.m) == (sdp.n, sdp.m)
        assert np.array_equal(back.b, sdp.b)
        assert np.array_equal(back.C.to_dense(), sdp.C.to_dense())
        for Ak, Bk in zip(sdp.A, back.A):
            assert np.array_equal(Ak.to_dense(), Bk.to_dense())

    def test_bqp_round_trip_residues(self, tmp_path):
        # written and reread BQP: identical m and constraint residues
        Q, c = gen.random_bqp(3, 5)
        sdp = gen.gen_bqp_moment(Q, c)
        path = tmp_path / "bqp.dat-s"
        write_sdpa(sdp, path)
        back = read_sdpa(path)
        assert back.m == sdp.m
        assert _objective_bytes(back) == _objective_bytes(sdp)
        Y = np.random.default_rng(0).standard_normal((sdp.n, 2))
        ra = prob.apply_constraints(sdp, Y) - sdp.b
        rb = prob.apply_constraints(back, Y) - back.b
        assert np.array_equal(ra, rb)

    @pytest.mark.parametrize("sdp", [
        gen.gen_maxcut(gen.unit_triangle_graph()),
        gen.gen_bqp_moment(*gen.random_bqp(5, 0))], ids=["maxcut", "bqp"])
    def test_round_trip_keeps_the_reported_objective(self, sdp, tmp_path):
        # Max-Cut flips the sign and BQP adds tr Q: one comment line
        # carries both, bit for bit
        path = tmp_path / "p.dat-s"
        write_sdpa(sdp, path)
        assert path.read_text().startswith("*lrsdp-objective ")
        back = read_sdpa(path)
        assert _objective_bytes(back) == _objective_bytes(sdp)
        assert _objective_bytes(sdp) != _objective_bytes(
            SdpProblem(sdp.n, sdp.C, sdp.A, sdp.b, sdp.manifold))

    def test_read_in_one_pass(self, tmp_path):
        # the q = 20 BQP relaxation (n = 211, m = 16 361) in under 9 MB:
        # each line is parsed as it is read, and no list of the file's
        # lines is held, which alone took 12 MB
        path = tmp_path / "b20.dat-s"
        write_sdpa(gen.gen_bqp_moment(*gen.random_bqp(20, 0)), path)
        tracemalloc.start()
        try:
            sdp = read_sdpa(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sdp.n, sdp.m) == (211, 16361)
        assert peak < 9e6

    @pytest.mark.parametrize("bad", ["nan 0", "1 inf"])
    def test_non_finite_objective_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.dat-s"
        path.write_text(f"*lrsdp-objective {bad}\n1\n1\n2\n1.0\n")
        with pytest.raises(prob.ProblemError, match="NaN or inf"):
            read_sdpa(path)


def _line_by_line(lines):
    """The content of an SDPA file's lines, read one line at a time: n, m,
    b, the objective's sign and offset, and the entries (matno, i, j,
    value), 0-based, in sorted order, duplicates summed in file order."""
    objective, content = [1.0, 0.0], []
    for line in lines:
        if line.startswith("*lrsdp-objective"):
            objective = [float(t) for t in line.split()[1:]]
        if line.strip() and line.strip()[0] not in "*\"":
            content.append(line.replace(",", " ").replace("{", " ")
                           .replace("}", " ").split())
    m, n = int(content[0][0]), int(content[2][0])
    b = [float(t) for t in content[3]] if m else []
    sums = {}
    for k, _, i, j, v in content[4 if m else 3:]:
        key = (int(k), int(i) - 1, int(j) - 1)
        sums[key] = sums.get(key, 0.0) + float(v)
    return {"n": n, "m": m, "b": b, "objective": objective,
            "entries": [key + (v,) for key, v in sorted(sums.items())]}


def _objective_bytes(sdp):
    return np.array([sdp.objective_sign, sdp.objective_offset]).tobytes()


class TestGset:
    def test_single_edge(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n1 2 1\n")
        g = read_gset(path)
        assert g.N == 2 and g.edges == ((1, 2, 1.0),)

    def test_triangle(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n1 2 1\n1 3 1\n2 3 1\n")
        g = read_gset(path)
        assert g.N == 3 and len(g.edges) == 3

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n2 1\n\n1 2 1\n\n")
        assert read_gset(path).N == 2

    def test_errors(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n1 2 1\n")
        with pytest.raises(FormatError, match="promises"):
            read_gset(path)
        path.write_text("2 1\n1 1 1\n")
        with pytest.raises(FormatError, match="self-loop"):
            read_gset(path)
        path.write_text("nope\n")
        with pytest.raises(FormatError, match="header"):
            read_gset(path)
        path.write_text("-1 0\n")
        with pytest.raises(FormatError, match="N >= 1"):
            read_gset(path)
        path.write_text("2 1\n1 2 nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_gset(path)
        path.write_text("\n\n")
        with pytest.raises(FormatError, match="empty file"):
            read_gset(path)
        path.write_text("2 1\n1 x 1\n")
        with pytest.raises(FormatError, match=":2: bad edge line"):
            read_gset(path)


class TestResultDocument:
    def _solved(self):
        sdp = gen.gen_maxcut(gen.unit_edge_graph())
        opts = alm.SolverOptions()
        sol = alm.solve(sdp, opts)
        return sdp, sol, result_document(sdp, sol, opts)

    def test_json_round_trip_lossless(self, tmp_path):
        sdp, sol, doc = self._solved()
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        back = json.loads(path.read_text())
        assert back["objective"] == sol.objective
        assert back["Y"] == doc["Y"]
        assert back["residues"]["eta_max"] == sol.residues.eta_max

    def test_problem_reconstruction(self):
        sdp, sol, doc = self._solved()
        back = problem_from_document(doc)
        assert (back.n, back.m) == (sdp.n, sdp.m)
        assert back.manifold is sdp.manifold
        assert back.objective_sign == sdp.objective_sign
        assert np.array_equal(back.C.to_dense(), sdp.C.to_dense())

    @pytest.mark.parametrize("source", [
        "maxcut", "completion", "bqp", "quartic", "sdpa"])
    def test_problem_round_trip_bytes(self, source, tmp_path):
        # the document holds the set's own sorted arrays, read back as
        # written: A, C and b come back with the same bytes and dtypes
        if source == "maxcut":
            sdp = gen.gen_maxcut(gen.unit_triangle_graph())
        elif source == "completion":
            _, entries = gen.random_completion(3, 4, 1, 7, 0)
            sdp = gen.gen_matrix_completion(3, 4, entries)
        elif source == "bqp":
            sdp = gen.gen_bqp_moment(*gen.random_bqp(3, 0))
        elif source == "quartic":
            sdp = gen.gen_quartic_sphere(2, gen.random_quartic(2, 0))
        else:  # entries out of order, a duplicate and an empty A_i
            path = tmp_path / "p.dat-s"
            path.write_text("3\n1\n3\n1 0 2\n3 1 2 3 0.1\n0 1 1 3 -1.0\n"
                            "1 1 1 2 1.0\n3 1 1 1 2.0\n1 1 1 2 0.5\n")
            sdp = read_sdpa(path)
        opts = alm.SolverOptions(max_outer_iters=1)
        doc = result_document(sdp, alm.solve(sdp, opts), opts)
        back = problem_from_document(json.loads(json.dumps(doc)))
        pairs = [(getattr(back.A, f), getattr(sdp.A, f))
                 for f in ("start", "rows", "cols", "vals")]
        pairs += [(getattr(back.C, f), getattr(sdp.C, f))
                  for f in ("rows", "cols", "vals")] + [(back.b, sdp.b)]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert (back.n, back.m, back.manifold) == (sdp.n, sdp.m, sdp.manifold)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 3),
           st.sampled_from(ALL_MANIFOLDS), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_random_problem_certified_or_not_converged(self, seed, n, m,
                                                       manifold, iters):
        # a small feasible problem, bounded below by a PSD C on the free
        # manifold: solve, a JSON round trip and the check never raise, and
        # a "converged" status is confirmed by the check
        rng = np.random.default_rng(seed)
        nnz = int(rng.integers(1, n * (n + 1) // 2 + 1))
        A = [SparseSymMatrix.from_triplets(n, random_sym_triplets(n, nnz, rng))
             for _ in range(m)]
        G = rng.standard_normal((n, n))
        C = G @ G.T if manifold is ManifoldKind.FREE else G + G.T
        iu, ju = np.triu_indices(n)
        C = SparseSymMatrix(n, iu, ju, C[iu, ju])
        Y0 = manifolds.random_point(n, 2, manifold, seed).Y
        b = prob.apply_constraints(
            SdpProblem(n, C, A, np.zeros(m), manifold), Y0)
        sdp = SdpProblem(n, C, A, b, manifold)
        opts = alm.SolverOptions(max_outer_iters=iters)
        sol = alm.solve(sdp, opts)
        doc = json.loads(json.dumps(result_document(sdp, sol, opts)))
        _, ok = check_document(doc, opts.tol)
        assert ok or sol.status != "converged"

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_arrays_round_trip_bit_for_bit(self, data):
        # every array comes back through JSON text with its bytes and
        # dtype, -0.0 and subnormals included, triplet rows and columns as
        # "<i4"; with m = 0 the A_i's triplets, b and y are empty strings
        # and "start" holds the one offset 0
        n, m, p = (data.draw(st.integers(lo, hi))
                   for lo, hi in ((1, 4), (0, 3), (1, 3)))
        manifold = data.draw(st.sampled_from(ALL_MANIFOLDS))

        def floats(size):
            return np.array(data.draw(st.lists(
                _FLOATS, min_size=size, max_size=size)), dtype=float)

        iu, ju = np.triu_indices(n)

        def matrix():
            keep = np.array(data.draw(st.lists(
                st.booleans(), min_size=iu.size, max_size=iu.size)))
            return SparseSymMatrix(n, iu[keep], ju[keep],
                                   floats(int(np.count_nonzero(keep))))

        sdp = SdpProblem(n, matrix(), [matrix() for _ in range(m)],
                         floats(m), manifold)
        sol = replace(_solution("edge")[0],
                      Y=manifolds.FactorPoint(
                          floats(n * p).reshape(n, p), manifold),
                      y=floats(m), z=floats(sdp.manifold_rhs().size))
        doc = json.loads(json.dumps(
            result_document(sdp, sol, alm.SolverOptions())))
        pd = doc["problem"]
        pairs = [(_doc_array(pd["C"], key), getattr(sdp.C, key).astype(
            _DOC_DTYPES.get(key, "<f8"))) for key in ("rows", "cols", "vals")]
        pairs += [(_doc_array(pd["A"], key), getattr(sdp.A, key).astype(
            _DOC_DTYPES.get(key, "<f8")))
            for key in ("start", "rows", "cols", "vals")]
        pairs += [(_doc_array(pd, "b"), sdp.b),
                  (_doc_array(doc, "Y").reshape(n, -1), sol.Y.Y)]
        pairs += [(_doc_array(doc, key), getattr(sol, key))
                  for key in ("y", "z")]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if m == 0:
            assert pd["b"] == doc["y"] == "" and not any(
                pd["A"][key] for key in ("rows", "cols", "vals"))
            assert _doc_array(pd["A"], "start").tolist() == [0]

    @pytest.mark.parametrize("tamper,needle", [
        (lambda d: d.update(y=57), "field 'y' must be a string, got int"),
        (lambda d: d.update(y="AAAA!AAAAAAA="),
         "field 'y' is not valid base64"),
        (lambda d: d.update(y="AAAAAAA\u00e9"),
         "field 'y' is not valid base64"),
        (lambda d: d.update(y=base64.b64encode(bytes(7)).decode()),
         "field 'y' holds 7 bytes, not a multiple of 8"),
        (lambda d: _edit(d, "y", lambda v: v[1:]),
         "field 'y' must have length 57, got 56"),
        (lambda d: _edit(d, "z", lambda v: np.append(v, 1.0)),
         "field 'z' must have length 11, got 12"),
        (lambda d: d.update(Y=""), "field 'Y' holds 0 values, not 11 x p"),
        (lambda d: _edit(d, "Y", lambda v: v[1:]),
         "values, not 11 x p"),
        (_list_form, "field 'rows' must be a string, got list"),
        (lambda d: d["problem"]["A"].update(
            rows=base64.b64encode(bytes(6)).decode()),
         "field 'rows' holds 6 bytes, not a multiple of 4"),
        # A_k is start[k]:start[k + 1]: 58 offsets from 0 to the triplet
        # count, never decreasing
        (lambda d: _edit(d["problem"]["A"], "start", _set(0, 1)),
         _BAD_START),
        (lambda d: _edit(d["problem"]["A"], "start",
                         lambda v: v.__setitem__(5, v[6] + 1)), _BAD_START),
        (lambda d: _edit(d["problem"]["A"], "start", lambda v: v[:-1]),
         _BAD_START),
        (lambda d: _edit(d["problem"]["A"], "start", _set(-1, 10**6)),
         _BAD_START),
        (_index_form, "field 'index' is not read"),
        # the former "<i8" offsets read as twice as many "<i4" ones
        (lambda d: _edit(d["problem"]["A"], "start",
                         lambda v: v.astype("<i8")), _BAD_START),
    ], ids=["not-a-string", "bad-base64", "non-ascii", "odd-bytes",
            "short-y", "long-z", "empty-Y", "ragged-Y", "list-form",
            "odd-row-bytes", "start-from-1", "start-decreasing",
            "start-short", "start-past-the-end", "index-form",
            "start-8-bytes"])
    def test_malformed_array_rejected(self, tamper, needle, tmp_path,
                                      capsys):
        # check_document raises ProblemError naming the field, and
        # lrsdp check exits 1 with one "lrsdp:" line
        doc = json.loads(_solution("bqp")[1])
        tamper(doc)
        with pytest.raises(prob.ProblemError) as err:
            check_document(doc, 1e-8)
        assert needle in str(err.value)
        out = tmp_path / "r.json"
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lrsdp: ")
        assert needle in err[0]

    def test_check_accepts_good_solution(self):
        _, _, doc = self._solved()
        res, ok = check_document(doc, tol=1e-8)
        assert ok

    def test_check_rejects_tampered(self):
        _, _, doc = self._solved()
        Y = _decoded(doc, "Y")
        Y[0] += 0.25
        doc["Y"] = _encoded(Y)
        res, ok = check_document(doc, tol=1e-8)
        assert not ok
        assert res.eta_max > 1e-3

    def test_numpy_options_written_as_plain_numbers(self):
        # the options accept numpy integers; json.dumps raised TypeError on
        # an int32 copied through into the document
        sdp = gen.gen_maxcut(gen.unit_triangle_graph())
        opts = alm.SolverOptions(seed=np.int64(3), delta_ne=np.int32(2))
        doc = json.loads(json.dumps(
            result_document(sdp, alm.solve(sdp, opts), opts)))
        assert doc["options"]["seed"] == 3 and doc["options"]["delta_ne"] == 2
        res, ok = check_document(doc, tol=1e-8)
        assert ok

    @pytest.mark.parametrize("manifold,needle", [
        (None, "missing field 'manifold'"),
        (5, "field 'manifold' must be a string"),
        ("oops", "field 'manifold' must be one of ['free', 'unit-trace', "
                 "'unit-diagonal'], got 'oops'"),
    ], ids=["missing", "number", "unknown"])
    def test_malformed_manifold(self, manifold, needle, tmp_path, capsys):
        # these raised KeyError and a bare ValueError
        _, _, doc = self._solved()
        if manifold is None:
            del doc["problem"]["manifold"]
        else:
            doc["problem"]["manifold"] = manifold
        with pytest.raises(prob.ProblemError) as err:
            problem_from_document(doc)
        assert needle in str(err.value)
        out = tmp_path / "r.json"
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert needle in capsys.readouterr().err

    def test_trace_csv(self, tmp_path):
        _, sol, _ = self._solved()
        path = tmp_path / "t.csv"
        write_trace_csv(sol.trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        # a field added to IterationTrace reaches the CSV without a second
        # list to keep in step
        assert lines[0].split(",") == [
            f.name for f in fields(alm.IterationTrace)]
        assert len(lines) == 1 + len(sol.trace)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[2]) == sol.trace[0].sigma


class TestCli:
    def test_solve_generate_edge(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = cli_main(["solve", "--generate", "maxcut-edge",
                       "--tol", "1e-8", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(1.0, abs=1e-8)
        assert doc["status"] == "converged"

    def test_no_result_document_without_output(self, monkeypatch):
        # the document is built only to be written
        def unbuilt(*args):
            raise AssertionError("result document built without --output")

        monkeypatch.setattr("lrsdp.io_cli.result_document", unbuilt)
        assert cli_main(["solve", "--generate", "maxcut-triangle"]) == 0

    def test_solve_writes_trace(self, tmp_path):
        trace = tmp_path / "t.csv"
        rc = cli_main(["solve", "--generate", "maxcut-triangle",
                       "--trace", str(trace)])
        assert rc == 0
        assert trace.read_text().startswith("k,p,sigma")

    @pytest.mark.parametrize("routine,fails_at", [("eigh", 1),
                                                  ("eigvalsh", 1)])
    def test_eigensolver_failure_exit_2(self, routine, fails_at, tmp_path,
                                        capsys, monkeypatch):
        # the solve returns its iterate with its own status; the result
        # document and the trace are still written
        eig, calls = getattr(np.linalg, routine), []

        def failing(a):
            calls.append(a)
            if len(calls) == fails_at:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, routine, failing)
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        rc = cli_main(["solve", "--generate", "bqp", "--q", "6",
                       "--output", str(out), "--trace", str(trace)])
        assert rc == 2
        assert "status=eigensolver-failure" in capsys.readouterr().out
        doc = _strict_json(out.read_text())
        assert doc["status"] == "eigensolver-failure"
        assert doc["residues"]["eta_d"] is None
        assert len(trace.read_text().splitlines()) == doc["iterations"] + 1

    def test_result_is_strict_json(self, tmp_path, capsys):
        # NaN and Infinity are not JSON (RFC 8259): the eta_d and eta_max
        # of the trace rows from no eigensolve, and an unbounded time
        # limit, are written as null, and check still reads the document
        out = tmp_path / "c.json"
        assert cli_main(["solve", "--generate", "completion", "--s", "30",
                         "--t", "30", "--rank", "2", "--time-limit", "inf",
                         "--output", str(out)]) == 0
        doc = _strict_json(out.read_text())
        assert doc["options"]["max_time"] is None
        rows = [row for row in doc["trace"] if row["eta_d"] is None]
        assert rows and doc["trace"][-1]["eta_d"] is not None
        assert all(row["eta_max"] is None for row in rows)
        assert cli_main(["check", str(out)]) == 0

    def test_empty_completion_converges(self, tmp_path):
        # no samples: m = 0, and the answer X = 0 is certified
        out = tmp_path / "e.json"
        assert cli_main(["solve", "--generate", "completion", "--s", "3",
                         "--t", "4", "--samples", "0",
                         "--output", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "converged"

    @pytest.mark.parametrize("command", ["solve --generate", "generate"])
    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_quartic_without_variables_exit_1(self, command, q, tmp_path,
                                              capsys):
        argv = command.split() + ["quartic", "--q", q]
        if command == "generate":
            argv += ["--output", str(tmp_path / "p.dat-s")]
        assert cli_main(argv) == 1
        assert "q >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", [
        (["--samples", "20"], "num_samples must be in 0..9"),
        (["--samples", "-1"], "num_samples must be in 0..9"),
        (["--rank", "-1"], "rank must be at least 0")])
    def test_completion_arguments_out_of_range_exit_1(self, flags, named,
                                                      capsys):
        argv = ["solve", "--generate", "completion", "--s", "3", "--t", "3"]
        assert cli_main(argv + flags) == 1
        assert named in capsys.readouterr().err

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat-s"
        bad.write_text("1\n1\n2\n1.0\ngarbage line here\n")
        rc = cli_main(["solve", "--input", str(bad),
                       "--manifold", "unit-diagonal"])
        assert rc == 1
        assert ":5:" in capsys.readouterr().err

    def test_missing_input_exit_1(self, capsys):
        assert cli_main(["solve", "--input", "/nonexistent.dat-s"]) == 1

    def test_module_entry_point_exit_1(self, tmp_path):
        # python -m lrsdp.io_cli runs the CLI: a missing result file is one
        # "lrsdp:" line on stderr and exit status 1. runpy may warn first
        # that the package's __init__ has imported io_cli already
        src = str(Path(alm.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "lrsdp.io_cli", "check",
             str(tmp_path / "missing.json")],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        lines = run.stderr.splitlines()
        errors = [line for line in lines if line.startswith("lrsdp: ")]
        assert len(errors) == 1 and "missing.json" in errors[0]
        assert all("RuntimeWarning" in line
                   for line in lines if line not in errors)
        assert run.stdout == ""

    def test_package_entry_point_exit_1(self, tmp_path):
        # python -m lrsdp runs the CLI through the package's __main__, with
        # no runpy warning: a missing result file is exactly one stderr line
        src = str(Path(alm.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "lrsdp", "check",
             str(tmp_path / "missing.json")],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lrsdp: ")
        assert "missing.json" in lines[0]
        assert run.stdout == ""

    def test_unknown_flag_exit_1(self, capsys):
        assert cli_main(["solve", "--badflag"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_input_and_generate_conflict(self, capsys):
        assert cli_main(["solve"]) == 1

    def test_zero_outer_iterations_exit_1(self, capsys):
        rc = cli_main(["solve", "--generate", "maxcut-edge",
                       "--max-iters", "0"])
        assert rc == 1
        assert "max_outer_iters must be at least 1" in capsys.readouterr().err

    def test_every_option_is_a_solve_flag(self, monkeypatch):
        # each field gets a value other than its default from its own flag
        given = {"tol": ("--tol", 1e-7), "delta_ne": ("--delta-ne", 5),
                 "max_outer_iters": ("--max-iters", 100),
                 "max_time": ("--time-limit", 60.0), "seed": ("--seed", 1)}
        assert set(given) == {f.name for f in fields(alm.SolverOptions)}
        captured = []

        class Captured(Exception):
            pass

        def capture(sdp, opts):
            captured.append(opts)
            raise Captured
        monkeypatch.setattr(alm, "solve", capture)
        argv = ["solve", "--generate", "bqp", "--q", "4"]
        for flag, value in given.values():
            argv += [flag, repr(value)]
        with pytest.raises(Captured):
            cli_main(argv)
        defaults = alm.SolverOptions()
        for name, (_, value) in given.items():
            got = getattr(captured[0], name)
            assert getattr(defaults, name) != value
            assert got == value and type(got) is type(value), name

    @pytest.mark.parametrize("flag,value", [
        ("--p0", "3"), ("--sigma0", "2"), ("--gamma", "3"), ("--tau", "0.5"),
        ("--theta", "1e-4")])
    def test_removed_solver_flag_exit_1(self, capsys, flag, value):
        # the starting rank, the penalty's schedule and the rank cut's
        # threshold are constants of lrsdp.alm, not flags
        rc = cli_main(["solve", "--generate", "bqp", "--q", "3", flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "usage" in err

    def test_infinite_tol_exit_1(self, capsys):
        rc = cli_main(["solve", "--generate", "bqp", "--q", "4",
                       "--tol", "inf"])
        assert rc == 1
        assert "tol must be positive and finite" in capsys.readouterr().err

    def test_negative_seed_exit_1(self, capsys):
        # the options are checked before the seed reaches a generator
        rc = cli_main(["solve", "--generate", "bqp", "--q", "3",
                       "--seed", "-1"])
        assert rc == 1
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_input_exit_1(self, tmp_path, capsys, bad):
        path = tmp_path / "nan.dat-s"
        path.write_text(f"1\n1\n2\n1.0\n0 1 1 1 {bad}\n1 1 1 1 1.0\n")
        rc = cli_main(["solve", "--input", str(path)])
        assert rc == 1
        assert "NaN or inf" in capsys.readouterr().err

    # one n x n float64 array at n = 5 000 000 needs 182 TiB, more than a
    # 64-bit address space holds, so numpy fails at once under any
    # overcommit policy; the solve first allocates its n x 2 start factor
    HUGE_N = 5_000_000

    def test_impossible_allocation_in_solve_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.dat-s"
        path.write_text(f"1\n1\n{self.HUGE_N}\n1.0\n0 1 1 1 1.0\n"
                        f"1 1 1 1 1.0\n")
        assert cli_main(["solve", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "lrsdp: Unable to allocate")

    def test_impossible_allocation_in_check_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "completion", "--s", "2",
                         "--t", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["problem"].update(n=self.HUGE_N, m=0, b="", A={
            "start": _encoded(np.zeros(1, "<i4")), "rows": "", "cols": "",
            "vals": ""})
        doc["y"] = ""
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["check", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "lrsdp: Unable to allocate")

    def test_limit_exit_2(self, capsys):
        rc = cli_main(["solve", "--generate", "bqp", "--q", "4",
                       "--tol", "1e-30", "--max-iters", "2"])
        assert rc == 2

    def test_generate_then_solve(self, tmp_path, capsys):
        path = tmp_path / "bqp.dat-s"
        assert cli_main(["generate", "bqp", "--q", "3",
                         "--output", str(path)]) == 0
        assert cli_main(["solve", "--input", str(path),
                         "--manifold", "unit-diagonal"]) == 0

    @pytest.mark.parametrize("family", [
        ["maxcut-triangle"], ["bqp", "--q", "5"]], ids=["maxcut", "bqp"])
    def test_generated_file_reports_the_family_objective(self, tmp_path,
                                                         capsys, family):
        # a file without the sign and the offset tr Q reported -2.25
        # against 2.25 on the triangle and -5.9504 against -5.5306 on BQP
        path = tmp_path / "p.dat-s"
        objectives = []
        for argv in (["solve", "--generate", *family],
                     ["generate", *family, "--output", str(path)],
                     ["solve", "--input", str(path),
                      "--manifold", "unit-diagonal"]):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            objectives += [float(t.split("=")[1]) for t in out.split()
                           if t.startswith("objective=")]
        assert objectives[1] == pytest.approx(objectives[0], abs=1e-6)

    def test_check_round_trip(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "maxcut-edge",
                         "--output", str(out)]) == 0
        assert cli_main(["check", str(out)]) == 0
        doc = json.loads(out.read_text())
        Y = _decoded(doc, "Y")
        Y[0] += 0.3
        doc["Y"] = _encoded(Y)
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_uses_the_tol_solved_at(self, tmp_path, capsys):
        # check reads tol from the document's options unless --tol
        # overrides it, and falls back to 1e-8 where the document has none
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "bqp", "--q", "6",
                         "--tol", "1e-7", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        eta_max = check_document(doc, 1.0)[0].eta_max
        assert 0 < eta_max <= 1e-7
        capsys.readouterr()
        assert cli_main(["check", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("tol=1e-07 ok")
        # a document written while p0, sigma0, gamma, tau and theta were
        # options, not constants, holds ten: its tol is read all the same
        doc["options"].update(p0=2, sigma0=1.0, gamma=2.0, tau=1.0,
                              theta=1e-3)
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("tol=1e-07 ok")
        doc["options"]["tol"] = eta_max / 2
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 2
        assert capsys.readouterr().out.rstrip().endswith(
            f"tol={eta_max / 2!r} FAIL")
        assert cli_main(["check", str(out), "--tol", "1e-7"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("tol=1e-07 ok")
        fallback_rc = 0 if eta_max <= 1e-8 else 2
        del doc["options"]["tol"]
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == fallback_rc
        assert "tol=1e-08 " in capsys.readouterr().out
        del doc["options"]
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == fallback_rc
        assert "tol=1e-08 " in capsys.readouterr().out

    @pytest.mark.parametrize("tol,needle", [
        ("inf", "positive and finite"), (0, "positive and finite"),
        (-1e-8, "positive and finite"), ("1e-7", "must be a number"),
        (None, "must be a number"), (True, "must be a number")])
    def test_check_bad_stored_tol_exit_1(self, tmp_path, capsys, tol,
                                         needle):
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "maxcut-edge",
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["options"]["tol"] = float(tol) if tol == "inf" else tol
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_check_tol_not_positive_and_finite_exit_1(self, tmp_path, capsys,
                                                      tol):
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "maxcut-edge",
                         "--output", str(out)]) == 0
        assert cli_main(["check", str(out), "--tol", tol]) == 1
        assert "tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper,needle", [
        ("negative-row", "out of range"), ("duplicate", "duplicate")])
    def test_check_rejects_malformed_matrix(self, tmp_path, capsys, tamper,
                                            needle):
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "maxcut-edge",
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        C = doc["problem"]["C"]
        if tamper == "negative-row":
            # an off-diagonal entry in row 0: numpy indexing would wrap -n
            # back to row 0 and certify the document
            rows, cols = _decoded(C, "rows"), _decoded(C, "cols")
            k = np.flatnonzero((rows == 0) & (cols != 0))[0]
            _edit(C, "rows", _set(k, -doc["problem"]["n"]))
        else:
            for key in ("rows", "cols", "vals"):
                _edit(C, key, lambda values: np.append(values, values[0]))
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("tamper,needle", [
        (lambda p: _edit(p["A"], "rows", _set(1, -9)), "out of range"),
        (lambda p: _edit(p["A"], "cols", _set(1, 9)), "out of range"),
        # the last triplet twice, both in the last A_i
        (lambda p: [_edit(p["A"], key, lambda v: np.append(v, v[-1]))
                    for key in ("rows", "cols", "vals")]
         + [_edit(p["A"], "start", lambda v: np.append(v[:-1], v[-1] + 1))],
         "duplicate"),
        # a value inside an array is raw bytes: 1.5, null and "x" now
        # stand in place of the whole array
        (lambda p: p["A"].update(rows=1.5), "'rows' must be a string"),
        (lambda p: p["A"].update(cols=None), "'cols' must be a string"),
        (lambda p: _edit(p["A"], "vals", lambda v: np.append(v, 1.0)),
         "differ in length"),
        (lambda p: p["A"].update(vals="x"), "'vals' is not valid base64"),
        # the former layout, one object per A_i, is not read
        (lambda p: p.update(A=[
            {"rows": [r], "cols": [c], "vals": [v]} for r, c, v in
            zip(*(_decoded(p["A"], key).tolist()
                  for key in ("rows", "cols", "vals")))]),
         "'A' must be an object"),
    ], ids=["negative-row", "large-col", "duplicate", "float-row",
            "null-col", "ragged", "string-val", "list-matrix"])
    def test_check_rejects_malformed_constraint(self, tmp_path, capsys,
                                                tamper, needle):
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "completion", "--s", "2",
                         "--t", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        tamper(doc["problem"])
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [None, 1.5])
    def test_check_rejects_non_integer_index(self, tmp_path, capsys, bad):
        # null used to escape as a TypeError traceback, 1.5 was truncated;
        # an index inside the array is raw bytes, so each now stands in
        # place of the whole array
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "maxcut-edge",
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["problem"]["C"]["rows"] = bad
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert "'rows' must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper,needle", [
        (lambda d: _edit(d["problem"]["C"], "rows",
                         lambda v: np.append(v, 0)), "differ in length"),
        (lambda d: d["problem"].update(n="2"), "'n' must be an integer"),
        (lambda d: d["problem"]["C"].update(rows=5),
         "'rows' must be a string"),
        (lambda d: d.update(y=[{}]), "'y' must be a string, got list"),
        (lambda d: d.update(Y=[[{}]]), "'Y' must be a string, got list"),
        # a boolean inside an array is raw bytes: true now stands in
        # place of the whole array, which numpy would have read as 1
        (lambda d: d["problem"]["C"].update(cols=True),
         "'cols' must be a string, got bool"),
        (lambda d: d["problem"]["C"].update(vals=True),
         "'vals' must be a string, got bool"),
        # the former format's "index", even as a boolean, is not read
        (lambda d: d["problem"]["A"].update(index=True),
         "field 'index' is not read"),
        (lambda d: d["problem"]["A"].update(start=True),
         "'start' must be a string, got bool"),
        (lambda d: d["problem"]["A"].update(rows=True),
         "'rows' must be a string, got bool"),
        (lambda d: d["problem"].update(b=True),
         "'b' must be a string, got bool"),
        (lambda d: d.update(Y=True), "'Y' must be a string, got bool"),
        (lambda d: d.update(y=True), "'y' must be a string, got bool"),
        (lambda d: d.update(z=True), "'z' must be a string, got bool"),
        (lambda d: [d], "expected an object"),
    ], ids=["ragged-rows", "string-n", "scalar-rows", "object-in-y",
            "object-in-Y", "bool-C-col", "bool-C-val", "bool-A-index",
            "bool-A-start", "bool-A-row", "bool-b", "bool-Y", "bool-y",
            "bool-z",
            "list-document"])
    def test_check_rejects_malformed_field(self, tmp_path, capsys, tamper,
                                           needle):
        # a plain zip dropped the extra row index and certified the document;
        # the mistyped fields escaped as TypeError tracebacks; numpy read a
        # boolean as 1, so true in place of a 1 certified the document; a
        # tamper that returns a value replaces the whole document
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "bqp", "--q", "2",
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        out.write_text(json.dumps(tamper(doc) or doc))
        assert cli_main(["check", str(out)]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("path", [("problem", "A", "start"), ("y",)])
    def test_check_names_missing_field(self, tmp_path, capsys, path):
        # a bare KeyError printed only "lrsdp: 'index'", the field that
        # "start" replaced
        out = tmp_path / "r.json"
        assert cli_main(["solve", "--generate", "completion", "--s", "2",
                         "--t", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert f"missing field {path[-1]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("family,tamper,needle", [
        ("bqp", lambda d: _edit(d, "y", lambda v: v[:-1]),
         "field 'y' must have length 57, got 56"),
        ("bqp", lambda d: _edit(d, "z", lambda v: v[:-1]),
         "field 'z' must have length 11, got 10"),
        ("completion", lambda d: d.update(z=_encoded([1.0, 2.0])),
         "field 'z' must have length 0, got 2"),
    ], ids=["short-y", "short-z", "free-z"])
    def test_check_names_multiplier_length(self, tmp_path, capsys, family,
                                           tamper, needle):
        # numpy's own broadcast and matmul errors used to be all it printed
        out = tmp_path / "r.json"
        flags = ["--q", "4"] if family == "bqp" else ["--s", "2", "--t", "2"]
        assert cli_main(["solve", "--generate", family, *flags,
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        tamper(doc)
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(out)]) == 1
        assert needle in capsys.readouterr().err

    def test_type_error_in_solve_is_not_swallowed(self, monkeypatch):
        def broken(sdp, opts):
            raise TypeError("bug")
        monkeypatch.setattr(alm, "solve", broken)
        with pytest.raises(TypeError, match="bug"):
            cli_main(["solve", "--generate", "maxcut-edge"])

    def test_determinism(self, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli_main(["solve", "--generate", "bqp", "--q", "4",
                             "--seed", "11", "--output", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("wall_time")
            for row in doc["trace"]:
                row.pop("time")
            docs.append(doc)
        assert docs[0] == docs[1]
