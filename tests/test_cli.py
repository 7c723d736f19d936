import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import weakref
from itertools import combinations
from math import comb

import pytest

import veronese_kit
import veronese_kit.brackets as brackets
from veronese_kit.brackets import (
    BracketPolynomial,
    format_bracket_poly,
    phi_as_bracket_poly,
    psi_generators,
)
from veronese_kit import cli, transversal
from veronese_kit.cli import SCHEMA, main
from veronese_kit.linalg import Matrix

from cli_runner import invoke
from oracles import count_walk_windows, relabel


def run(args, input=None):
    return invoke(args, input=input, catch_exceptions=False)


def run_json(args, input=None):
    res = run(args, input=input)
    doc = json.loads(res.output)
    assert doc["schema"] == SCHEMA
    assert set(doc) == {"schema", "status", "payload", "log"}
    return res.exit_code, doc


def test_eqs_text_single_conic_generator():
    res = run(["eqs", "--d", "2", "--n", "6"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines == [
        "(1,2,3,4,5,6) + |1 2 3||1 4 5||2 4 6||3 5 6| - |1 2 4||1 3 5||2 3 6||4 5 6|"
    ]


def test_eqs_counts():
    code, doc = run_json(["eqs", "--d", "2", "--n", "8", "--format", "json"])
    assert code == 0 and doc["payload"]["count"] == 28
    code, doc = run_json(["eqs", "--d", "3", "--n", "7", "--format", "json"])
    assert code == 0 and doc["payload"]["count"] == 7
    gen0 = doc["payload"]["generators"][0]
    assert gen0["I"] == [1, 2, 3, 4, 5, 6] and gen0["J"] == [1, 2, 3, 4, 5, 6, 7]
    assert gen0["ground"] == 7 and gen0["width"] == 4


def _eqs_count(d, n):
    return comb(n, 6) if d == 2 else comb(n, d + 4) * comb(d + 4, 6)


EQS_SHAPES = [
    (d, n) for d in range(2, 10) for n in range(max(6, d + 4), 20) if _eqs_count(d, n) <= 2000
]


def _eqs_oracle(d, n):
    """(labels, pullback) per generator, each pullback rebuilt by `relabel`."""
    if d == 2:
        phi = phi_as_bracket_poly()
        return [({"I": list(I)}, relabel(phi, I, ground=n)) for I in combinations(range(1, n + 1), 6)]
    return [
        ({"I": list(I), "J": list(J)}, relabel(poly, J, ground=n))
        for J in combinations(range(1, n + 1), d + 4)
        for I, poly in psi_generators(d)
    ]


@pytest.mark.parametrize("d, n", EQS_SHAPES, ids=lambda v: str(v))
def test_eqs_matches_relabel_oracle(d, n):
    gens = _eqs_oracle(d, n)
    lines = []
    for labels, P in gens:
        label = ",".join(map(str, labels["I"]))
        if "J" in labels:
            label += "; " + ",".join(map(str, labels["J"]))
        lines.append(f"({label}) {format_bracket_poly(P)}")
    res = run(["eqs", "--d", str(d), "--n", str(n)])
    assert res.exit_code == 0 and res.output == "\n".join(lines) + "\n"
    payload = {
        "d": d,
        "n": n,
        "count": len(gens),
        "generators": [
            labels
            | {
                "ground": P.ground,
                "width": P.width,
                "terms": [{"coef": c, "factors": [list(f) for f in fs]} for c, fs in P.terms],
                "text": format_bracket_poly(P),
            }
            for labels, P in gens
        ],
    }
    doc = {"schema": SCHEMA, "status": "Ok", "payload": payload, "log": []}
    res = run(["eqs", "--d", str(d), "--n", str(n), "--format", "json"])
    assert res.exit_code == 0 and json.loads(res.output) == doc
    # byte for byte the stdlib's rendering: a whitespace slip would still parse equal
    assert _first_difference(res.output, json.dumps(doc, sort_keys=True, indent=2) + "\n") is None


def _first_difference(out, expected):
    """None when the texts are equal, else the first offset where they differ
    and the text around it in each. pytest's own report of unequal strings
    diffs them line by line, which takes minutes at these sizes."""
    if out == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b), min(len(out), len(expected)))
    return at, out[max(at - 40, 0) : at + 40], expected[max(at - 40, 0) : at + 40]


def test_eqs_builds_no_polynomial_per_generator(monkeypatch):
    built = []
    init, canonical = BracketPolynomial.__init__, BracketPolynomial._canonical

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_canonical(*args):
        built.append(1)
        return canonical(*args)

    monkeypatch.setattr(BracketPolynomial, "__init__", counting_init)
    monkeypatch.setattr(BracketPolynomial, "_canonical", counting_canonical)
    for d, small, large in ((2, 6, 9), (3, 7, 9)):
        counts = []
        for n in (small, large):
            brackets.psi_generators.cache_clear()
            built.clear()
            for fmt in ("text", "json"):
                assert run(["eqs", "--d", str(d), "--n", str(n), "--format", fmt]).exit_code == 0
            counts.append(len(built))
        assert 0 < counts[0] == counts[1], (d, counts)


def test_eqs_precondition_errors():
    code, doc = run_json(["eqs", "--d", "3", "--n", "6"])
    assert code == 2 and doc["status"] == "PreconditionFailed"
    code, doc = run_json(["eqs", "--d", "1", "--n", "9"])
    assert code == 2


def test_eqs_over_budget_exits_3():
    code, doc = run_json(["eqs", "--d", "8", "--n", "30"])
    assert code == 3 and doc["status"] == "BudgetExceeded"
    assert "budget" in doc["payload"]["error"]


def test_sample_eval_round_trip_conic():
    res = run(["sample", "--family", "rnc", "--d", "2", "--n", "7", "--field", "Q", "--seed", "3"])
    assert res.exit_code == 0
    code, doc = run_json(["eval"], input=res.output)
    assert code == 0
    rep = doc["payload"]["report"]
    assert rep["kind"] == "conic" and rep["all_vanish"] is True and rep["checked"] == 7


def test_eval_reports_planar_annotation():
    res = run(["sample", "--family", "degenerate", "--d", "3", "--n", "9", "--seed", "1"])
    code, doc = run_json(["eval"], input=res.output)
    assert code == 0
    rep = doc["payload"]["report"]
    assert rep["classification"] == "InY"
    assert rep["in_V"] == "unknown (n>=9)"


def test_eval_generic_witness():
    res = run(["sample", "--family", "generic", "--d", "3", "--n", "8", "--seed", "2"])
    code, doc = run_json(["eval"], input=res.output)
    rep = doc["payload"]["report"]
    assert rep["classification"] == "NotInW" and rep["in_V"] is False
    assert rep["witness"] is not None and len(rep["witness"]["J"]) == 7


def test_eval_large_curve_is_decided_from_the_head_windows():
    res = run(["sample", "--family", "rnc", "--d", "3", "--n", "40", "--seed", "1"])
    code, doc = run_json(["eval"], input=res.output)
    rep = doc["payload"]["report"]
    assert code == 0 and rep["all_vanish"] is True and rep["classification"] == "InW"
    assert rep["checked"] == comb(40, 7) * comb(7, 6)


def test_eval_curve_with_a_repeated_point_is_decided_from_the_head_windows(monkeypatch):
    # point 30 is a copy of point 1, so the head window {1..6, 30} is not in
    # general position; points 1..6 are, so the 24 head windows decide
    calls = count_walk_windows(monkeypatch)
    doc = json.loads(run(["sample", "--family", "rnc", "--d", "3", "--n", "30", "--seed", "1", "--field", "Q"]).output)
    columns = doc["payload"]["config"]["columns"]
    columns[29] = columns[0]
    code, doc = run_json(["eval"], input=json.dumps(doc["payload"]["config"]))
    rep = doc["payload"]["report"]
    assert code == 0 and rep["all_vanish"] is True and rep["classification"] == "InW"
    assert rep["checked"] == comb(30, 7) * comb(7, 6) == 14250600
    assert len(calls) == 24


def test_eval_decides_a_curve_of_1200_points_from_its_head_windows():
    # the last head window {1..6, 1200} leaves out points 7..1199: a walk that
    # nested one call per left-out point would pass the recursion limit
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cli = [sys.executable, "-m", "veronese_kit.cli"]
    args = ["sample", "--family", "rnc", "--d", "3", "--n", "1200", "--field", "Fp:65521", "--seed", "1"]
    sample = subprocess.run(cli + args, capture_output=True, text=True, env=env, timeout=20, check=True)
    proc = subprocess.run(cli + ["eval"], input=sample.stdout, capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)["payload"]["report"]
    assert rep["all_vanish"] is True and rep["classification"] == "InW"
    assert rep["checked"] == comb(1200, 7) * comb(7, 6)


def test_eval_fallback_scan_over_budget_exits_3(monkeypatch):
    # a chain is not in general position; its head windows vanish and
    # C(30, 7) - 24 windows would be left, so no window past the head is tested
    calls = count_walk_windows(monkeypatch)
    res = run(["sample", "--family", "chain", "--d", "3", "--n", "30", "--degrees", "2,1", "--seed", "1"])
    code, doc = run_json(["eval"], input=res.output)
    assert code == 3 and doc["status"] == "BudgetExceeded"
    assert f"leaves {comb(30, 7) - 24} windows to scan, over the budget of 20000" in doc["payload"]["error"]
    assert len(calls) == 24


def test_eval_conic_subset_scan_over_budget_exits_3(monkeypatch):
    # C(30, 6) = 593,775 six-point subsets: a generic sample's lift has rank 6,
    # so only a scan could decide it; a curve sample is one lift rank
    scans = []
    vector = Matrix.maximal_minors
    monkeypatch.setattr(Matrix, "maximal_minors", lambda self: scans.append(1) or vector(self))
    res = run(["sample", "--family", "generic", "--d", "2", "--n", "30", "--seed", "1"])
    code, doc = run_json(["eval"], input=res.output)
    assert code == 3 and doc["status"] == "BudgetExceeded"
    assert "593775 six-point subsets to scan, over the budget of 60000" in doc["payload"]["error"]
    res = run(["sample", "--family", "rnc", "--d", "2", "--n", "30", "--seed", "1"])
    code, doc = run_json(["eval"], input=res.output)
    assert code == 0 and doc["payload"]["report"]["all_vanish"] is True
    assert doc["payload"]["report"]["checked"] == comb(30, 6)
    code, doc = run_json(["eval", "--values"], input=res.output)
    assert code == 3 and doc["status"] == "BudgetExceeded"
    assert scans == []


def test_gale_chain_to_conic_equations():
    res = run(["sample", "--family", "rnc", "--d", "3", "--n", "7", "--field", "Q", "--seed", "4"])
    code, gale_doc = run_json(["gale"], input=res.output)
    assert code == 0
    assert gale_doc["payload"]["certificate"]["ok"] is True
    cfg = gale_doc["payload"]["config"]
    assert cfg["d"] == 2 and cfg["n"] == 7
    code, eval_doc = run_json(["eval"], input=json.dumps(gale_doc))
    assert code == 0 and eval_doc["payload"]["report"]["all_vanish"] is True


@pytest.mark.parametrize("field", ["Q", "Fp:65521"])
def test_gale_eliminates_its_input_once(monkeypatch, field):
    # the transform and the certificate share the input's one echelon form,
    # and the certificate reads one minor of the transform without eliminating it
    import veronese_kit.linalg as linalg

    res = run(["sample", "--family", "rnc", "--d", "4", "--n", "12", "--field", field, "--seed", "2"])
    calls = []
    int_rref = linalg.int_rref
    monkeypatch.setattr(linalg, "int_rref", lambda rows, p=None: calls.append(len(rows)) or int_rref(rows, p))
    code, doc = run_json(["gale"], input=res.output)
    assert code == 0 and doc["payload"]["certificate"]["ok"] is True
    assert calls == [5]


@pytest.mark.parametrize("field", ["Q", "Fp:65521"])
def test_eval_and_gale_make_no_reference_cycles(field):
    # a matrix keeps its minors; minors that pointed back would make a cycle per matrix
    ops = []
    for family, d, n in (("rnc", 2, 8), ("generic", 2, 8), ("rnc", 4, 11), ("generic", 4, 11)):
        doc = run(["sample", "--family", family, "--d", str(d), "--n", str(n), "--field", field, "--seed", "1"]).output
        ops.append((["eval"], doc))
    ops.append((["gale"], run(["sample", "--family", "rnc", "--d", "4", "--n", "11", "--field", field, "--seed", "2"]).output))
    for args, doc in ops:
        assert run(args, input=doc).exit_code == 0
        gc.collect()
        gc.disable()
        try:
            assert run(args, input=doc).exit_code == 0
            assert gc.collect() == 0, args
        finally:
            gc.enable()


def test_gale_certifies_every_pair_of_a_large_shape():
    # C(20, 10) = 184,756 complementary minor pairs, certified from one of them
    res = run(["sample", "--family", "generic", "--d", "9", "--n", "20", "--seed", "1"])
    code, doc = run_json(["gale"], input=res.output)
    assert code == 0 and doc["payload"]["certificate"]["ok"] is True
    assert doc["payload"]["certificate"]["checked"] == 184756


def test_eval_rejects_malformed_json():
    code, doc = run_json(["eval"], input="{not json")
    assert code == 2 and doc["status"] == "PreconditionFailed"
    assert "malformed JSON" in doc["payload"]["error"]


@pytest.mark.parametrize("entry", ["eval", "gale", "edges", "edges-file"])
def test_deeply_nested_json_is_bad_input(tmp_path, entry):
    # the decoder recurses once per level; too deep is malformed input, not a crash
    deep = "[" * 100000
    if entry == "edges":
        res = invoke(["transversal", "--n", "5", "--k", "3", "--edges", deep])
    elif entry == "edges-file":
        path = tmp_path / "edges.json"
        path.write_text(deep)
        res = invoke(["transversal", "--n", "5", "--k", "3", "--edges", f"@{path}"])
    else:
        res = invoke([entry], input=deep)
    assert res.exception is None and res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["status"] == "PreconditionFailed"
    assert doc["payload"]["error"] == "malformed JSON: nested too deeply to decode"


def test_eval_rejects_documents_without_config():
    code, doc = run_json(["eval"], input=json.dumps({"schema": SCHEMA}))
    assert code == 2


def test_sample_chain_needs_degrees():
    code, doc = run_json(["sample", "--family", "chain", "--d", "3", "--n", "8"])
    assert code == 2 and "--degrees" in doc["payload"]["error"]
    code, doc = run_json(
        ["sample", "--family", "chain", "--d", "3", "--n", "8", "--degrees", "2,1"]
    )
    assert code == 0
    assert doc["payload"]["descriptor"]["degrees"] == [2, 1]


def test_more_distinct_parameters_than_values_is_a_shape_error():
    # F_7 has 7 affine parameters and height 2 gives 5; asking for more exits
    # 2 before any draw, while exactly as many still samples
    for args, message in [
        (["sample", "--family", "rnc", "--d", "3", "--n", "9", "--field", "Fp:7"], "F_7 gives only 7"),
        (["sample", "--family", "rnc", "--d", "3", "--n", "8", "--field", "Fp:7"], "F_7 gives only 7"),
        (["sample", "--family", "rnc", "--d", "3", "--n", "6", "--field", "Q", "--height", "2"], "height 2 gives only 5"),
        (["sample", "--family", "chain", "--d", "3", "--n", "16", "--degrees", "2,1", "--field", "Fp:7"], "F_7 gives only 7"),
        (["dim", "--d", "1", "--n", "8", "--field", "Fp:7"], "F_7 gives only 7"),
    ]:
        code, doc = run_json(args)
        assert code == 2 and doc["status"] == "PreconditionFailed", args
        assert doc["payload"]["error"].endswith(message), args
    code, doc = run_json(["sample", "--family", "rnc", "--d", "3", "--n", "7", "--field", "Fp:7"])
    assert code == 0 and len(doc["payload"]["config"]["columns"]) == 7


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "generic", "--d", "2", "--n", "6"],
        ["--family", "chain", "--d", "3", "--n", "8", "--degrees", "2,1"],
    ],
    ids=["generic", "chain"],
)
def test_sample_at_height_zero_over_q_exits_3(args):
    # height 0 draws only the scalar 0: the redraw loops give up after their budget
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-m", "veronese_kit.cli", "sample", *args, "--field", "Q", "--height", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3 and json.loads(proc.stdout)["status"] == "BudgetExceeded"


@pytest.mark.parametrize("field", ["Q", "Fp"])
@pytest.mark.parametrize(
    "args",
    [
        ["--family", "generic", "--d", "3", "--n", "8"],
        ["--family", "chain", "--d", "3", "--n", "8", "--degrees", "2,1"],
        ["--family", "rnc", "--d", "3", "--n", "8"],
    ],
    ids=["generic", "chain", "rnc"],
)
def test_sample_at_negative_height_exits_2(args, field):
    # over Q randrange refused it with its own text, and over F_p it went unnoticed
    code, doc = run_json(["sample", *args, "--field", field, "--height", "-1"])
    assert code == 2 and doc["status"] == "PreconditionFailed"
    assert doc["payload"]["error"] == "--height must be >= 0, got -1"


@pytest.mark.parametrize("field", ["Q", "Fp"])
def test_dim_over_its_work_budget_exits_3(field):
    # S would hold 9,992 x 5,003 entries; the budget refuses the shape before any draw
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-m", "veronese_kit.cli", "dim", "--d", "2", "--n", "5000", "--field", field]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["status"] == "BudgetExceeded" and "over the budget of 1500000" in doc["payload"]["error"]


def test_eval_echoes_q_coordinates_in_canonical_form():
    doc = {"field": "Q", "d": 3, "n": 1, "columns": [[" 3", "+4", "1_0", "6/4"]]}
    code, out = run_json(["eval"], input=json.dumps(doc))
    assert code == 0 and out["payload"]["config"]["columns"] == [["3", "4", "10", "3/2"]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"field": "Q", "d": 2, "n": 0, "columns": []}, "need at least one nonempty column"),
        ({"field": {"Fp": 7}, "d": -1, "n": 2, "columns": [[], []]}, "need at least one nonempty column"),
        ({"field": "Q", "d": 0, "n": 2, "columns": [["1"], ["2"]]}, "d must be >= 1, got 0"),
        ({"field": "Q", "d": 2, "n": 2, "columns": [["0", "0", "0"], ["1", "2", "3"]]}, "point 1 has all-zero coordinates"),
    ],
)
def test_eval_rejects_empty_and_zero_shapes(doc, message):
    code, out = run_json(["eval"], input=json.dumps(doc))
    assert code == 2 and out["payload"]["error"] == message


def test_sample_output_is_byte_stable():
    args = ["sample", "--family", "generic", "--d", "2", "--n", "6", "--seed", "7"]
    assert run(args).output == run(args).output


def test_transversal_command():
    edges = json.dumps([[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]])
    code, doc = run_json(["transversal", "--n", "5", "--k", "3", "--edges", edges, "--min", "exact"])
    assert code == 0
    payload = doc["payload"]
    assert payload["transversal"] is True and payload["failing_partition"] is None
    assert payload["minimum"]["size"] == 5
    assert payload["bounds"] == {"incidence": 4, "averaging": 5}


def test_transversal_failing_partition_surfaces():
    code, doc = run_json(["transversal", "--n", "5", "--k", "3", "--edges", "[[1,2,3]]"])
    assert code == 0
    assert doc["payload"]["transversal"] is False
    assert doc["payload"]["failing_partition"] == [[1, 2, 3], [4], [5]]


@pytest.mark.parametrize("k", [1, 1100])
def test_transversal_greedy_minimum_at_large_n(k):
    # one partition of 1,100 points: the walk must not recurse once per point
    code, doc = run_json(["transversal", "--n", "1100", "--k", str(k), "--min", "greedy"])
    assert code == 0
    minimum = doc["payload"]["minimum"]
    assert minimum["size"] == 1 and len(minimum["edges"]) == 1
    assert minimum["edges"] == ([[1]] if k == 1 else [list(range(1, 1101))])


def test_transversal_budget_exceeded(monkeypatch):
    def walked(n, k, visit):
        raise AssertionError("_walk_partitions was called")

    # C(7, 3) = 35 candidate edges: over the exact search budget, refused before any walk
    monkeypatch.setattr(transversal, "_walk_partitions", walked)
    code, doc = run_json(["transversal", "--n", "7", "--k", "3", "--min", "exact"])
    assert code == 3 and doc["status"] == "BudgetExceeded"


@pytest.mark.parametrize("n, k, size", [(7, 5, 13), (8, 6, 18)])
def test_transversal_exact_minimum_at_the_budget(n, k, size):
    code, doc = run_json(["transversal", "--n", str(n), "--k", str(k), "--min", "exact"])
    assert code == 0
    minimum = doc["payload"]["minimum"]
    assert minimum["size"] == size and len(minimum["edges"]) == size


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_transversal_minimum_is_refused_before_the_partition_walk(mode, monkeypatch):
    walk, walked = transversal._walk_partitions, []

    def spy(*args):
        walked.append(args[:2])
        return walk(*args)

    def refuse(*args):
        raise AssertionError(f"the partition walk ran for {args[:2]} before the refusal")

    # an admitted shape walks its partitions through the spy
    monkeypatch.setattr(transversal, "_walk_partitions", spy)
    code, _ = run_json(["transversal", "--n", "5", "--k", "3", "--min", mode])
    assert code == 0 and walked == [(5, 3)]
    # exact: C(7, 3) = 35 candidate edges, over the search budget although the
    # work budget admits the walk; greedy: S(14, 7) * C(14, 7) edge tests
    monkeypatch.setattr(transversal, "_walk_partitions", refuse)
    n, k = (7, 3) if mode == "exact" else (14, 7)
    code, doc = run_json(["transversal", "--n", str(n), "--k", str(k), "--min", mode])
    assert code == 3 and doc["status"] == "BudgetExceeded"


def test_dim_agrees_with_formula():
    code, doc = run_json(["dim", "--d", "2", "--n", "6"])
    assert code == 0
    assert doc["payload"]["estimate"] == 11
    assert doc["payload"]["agrees"] is True


def test_verify_single_suite():
    code, doc = run_json(["verify", "--suite", "dimension", "--seed", "0"])
    assert code == 0 and doc["payload"]["all_passed"] is True
    assert all(line.startswith("PASS [dimension]") for line in doc["log"])
    names = [r["name"] for r in doc["payload"]["suites"]["dimension"]]
    assert names  # at least one check ran


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_in_process_invocation_frees_its_stdout(fmt):
    buf = io.StringIO()
    args = ["eqs", "--d", "2", "--n", "6", "--format", fmt]
    with contextlib.redirect_stdout(buf):
        with pytest.raises(SystemExit):
            main.main(args=args, prog_name="veronese-kit", standalone_mode=False)
    assert "|1 2 3||1 4 5||2 4 6||3 5 6|" in buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_eval_rejects_inexact_integers():
    res = run(["sample", "--family", "generic", "--d", "3", "--n", "8", "--seed", "2"])
    doc = json.loads(res.output)["payload"]["config"]
    code, out = run_json(["eval"], input=json.dumps({**doc, "d": 3.0}))
    assert code == 2 and "d must be an integer" in out["payload"]["error"]


@pytest.mark.parametrize(
    "col, message",
    [
        (["1", "1/0", "1"], "column 1, coordinate 2: '1/0' has a zero denominator"),
        (5, "column 1 must be a list of 3 coordinates, got 5"),
        ("123", "column 1 must be a list of 3 coordinates, got '123'"),
        (["1", 1.5, "1"], "column 1, coordinate 2: Q scalar must be a fraction string or int, got 1.5"),
        ([True, "1", "1"], "column 1, coordinate 1: Q scalar must be a fraction string or int, got True"),
        (["1", None, "1"], "column 1, coordinate 2: Q scalar must be a fraction string or int, got None"),
        (["1", "1", "abc"], "column 1, coordinate 3: Invalid literal for Fraction: 'abc'"),
    ],
)
def test_eval_names_the_bad_column_and_coordinate(col, message):
    _assert_bad_first_column("Q", col, message)


@pytest.mark.parametrize(
    "col, message",
    [
        ([1, "2", 3], "column 1, coordinate 2: F_p scalar must be an int, got '2'"),
        ([1, 2, True], "column 1, coordinate 3: F_p scalar must be an int, got True"),
    ],
)
def test_eval_names_the_bad_coordinate_of_an_fp_document(col, message):
    _assert_bad_first_column("Fp:101", col, message)


def _assert_bad_first_column(field, col, message):
    doc = json.loads(run(["sample", "--family", "generic", "--d", "2", "--n", "6", "--field", field]).output)
    cfg = doc["payload"]["config"]
    code, out = run_json(["eval"], input=json.dumps({**cfg, "columns": [col] + cfg["columns"][1:]}))
    assert code == 2 and out["payload"]["error"] == message


@pytest.mark.parametrize(
    "edges, message",
    [
        ("5", "edges must be a JSON list of edges, got 5"),
        ("[5]", "edge 5 must be a list of integers"),
        ("[[1.5, 2, 3]]", "edge [1.5, 2, 3] must be a list of integers"),
        ("[[1, 2, true]]", "edge [1, 2, True] must be a list of integers"),
    ],
)
def test_transversal_rejects_malformed_edges(edges, message):
    code, doc = run_json(["transversal", "--n", "5", "--k", "3", "--edges", edges])
    assert code == 2 and doc["payload"]["error"] == message


def test_malformed_edges_read_the_same_inline_and_from_a_file(tmp_path):
    path = tmp_path / "edges.json"
    path.write_text("[[1, 2,")
    message = "malformed JSON at line 1, column 8: Expecting value"
    for edges in ("[[1, 2,", f"@{path}"):
        code, doc = run_json(["transversal", "--n", "5", "--k", "3", "--edges", edges])
        assert code == 2 and doc["payload"]["error"] == message, edges


def test_input_files_are_closed(tmp_path):
    # an unclosed file is a ResourceWarning in development mode, here an error
    sample = tmp_path / "sample.json"
    sample.write_text(run(["sample", "--family", "rnc", "--d", "3", "--n", "8", "--seed", "1"]).output)
    edges = tmp_path / "edges.json"
    edges.write_text("[[1, 2, 3], [2, 3, 4]]")
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    dev = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "veronese_kit.cli"]
    commands = (
        ["eval", str(sample)],
        ["gale", str(sample)],
        ["transversal", "--n", "5", "--k", "3", "--edges", f"@{edges}"],
    )
    for args in commands:
        proc = subprocess.run(dev + args, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", (args, proc.stderr)


def test_internal_errors_are_not_bad_input(monkeypatch):
    import veronese_kit.conic as conic

    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    # `eval` imports the function from its module on each call
    monkeypatch.setattr(conic, "w2n_membership", broken)
    sample = run(["sample", "--family", "rnc", "--d", "2", "--n", "7"]).output
    res = invoke(["eval"], input=sample)
    assert isinstance(res.exception, TypeError) and res.exit_code == 1
    assert "PreconditionFailed" not in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["eqs", "--d", "2"],  # a missing required option
        ["eqs", "--d", "2", "--n", "6", "--format", "xml"],  # a bad choice
        ["eqs", "--d", "x", "--n", "6"],  # a bad integer
        ["eqs", "--d", "2", "--n", "6", "--form", "json"],  # an abbreviated option
        ["nope"],  # an unknown subcommand
        [],  # no subcommand
    ],
)
def test_usage_errors_exit_2(args):
    res = invoke(args)
    assert res.exit_code == 2 and res.output == ""


def test_help_lists_each_command_by_its_summary():
    res = invoke(["--help"])
    assert res.exit_code == 0 and "eqs        Emit the membership equation generators" in res.output
    # a command's implementation notes stay in its code
    assert "bracket_template" not in res.output


def test_an_unknown_option_is_reported_under_its_subcommand(capsys):
    res = invoke(["eqs", "--d", "2", "--n", "6", "--form", "json"])
    err = capsys.readouterr().err
    assert res.exit_code == 2 and res.output == ""
    # the usage line of `eqs` names the option meant
    assert err.startswith("usage: veronese-kit eqs ") and "--format" in err
    assert "veronese-kit eqs: error: unrecognized arguments: --form json" in err


#: Per subcommand: (valid arguments, an option with a bad value, other
#: valid arguments); each command's parser also sees the first with a
#: required option left out, an unknown option, -h, "--" and a repeated
#: option.
_DISPATCH_ARGS = {
    "eqs": (["--d", "3", "--n", "7", "--format", "json"], ["--d", "x", "--n", "7"], [["--d=3", "--n", "7"]]),
    "eval": (["in.json", "--values"], ["--values=yes"], [["--values", "--no-values"], ["-"], ["--values", "-"]]),
    "gale": (["in.json"], ["a.json", "b.json"], [["-"]]),
    "sample": (
        ["--family", "rnc", "--d", "2", "--n", "6", "--field", "Q"],
        ["--family", "curve", "--d", "2", "--n", "6"],
        [["--family=chain", "--d", "3", "--n", "8", "--degrees", "2,1"]],
    ),
    "transversal": (["--n", "5", "--k", "2", "--min", "greedy"], ["--n", "5", "--k", "2.5"], [["--n", "5", "--k", "2", "--edges", "[[1, 2]]"]]),
    "dim": (["--d", "3", "--n", "8", "--seed", "4"], ["--d", "x", "--n", "3"], [["--d", "3", "--n", "8", "--seed", "-5"], ["--seed=-5", "--d", "3", "--n", "8"]]),
    "verify": (["--suite", "gale", "--seed", "1"], ["--suite", "nope"], [["--suite=gale"]]),
}


def _dispatch_cases():
    for name, (valid, bad, others) in _DISPATCH_ARGS.items():
        yield [name, *valid]
        for args in others:
            yield [name, *args]
        yield [name, *valid[2:]]  # the first option left out: required for most commands
        yield [name, *bad]
        yield [name, *valid, "--bogus"]
        yield [name, "-h"]
        yield [name, "--", *valid]
        yield [name, *valid, "--"]
        yield [name, *valid, *valid[:2]]
    yield from ([], ["-h"], ["--help"], ["bogus"], ["bogus", "--d", "2"], ["--d", "2", "eqs"], ["--", "eqs"])


@pytest.mark.parametrize("args", list(_dispatch_cases()), ids=" ".join)
def test_dispatch_matches_the_top_parser(monkeypatch, capsys, args):
    # main parses with the first word's own parser; the top parser must read every case alike
    calls = []
    monkeypatch.setattr(cli, "_run", lambda cmd, opts: calls.append({"cmd": cmd, **opts}))
    outcomes = []
    for parse in (cli.main, lambda a: calls.append(vars(cli._PARSER.parse_args(a)))):
        calls.clear()
        try:
            parse(list(args))
            code = None
        except SystemExit as e:
            code = e.code
        outcomes.append((*capsys.readouterr(), code, calls[:]))
    assert outcomes[0] == outcomes[1]
    # a case either runs one command or exits: 0 after help, 2 on a usage error
    code, ran = outcomes[0][2:]
    assert (code, len(ran)) in {(None, 1), (0, 0), (2, 0)}


def _command_line(sub, rng: random.Random) -> list[str]:
    """A random command line for `sub`, from its own option strings: each
    required option with a good value most of the time, then a few words of
    every kind, good and bad values, and words only argparse reads
    ("--opt=value", "-5", "--", "-h", unknown words, extra positionals)."""
    actions = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    options = [s for a in sub._actions for s in a.option_strings]
    junk = ["x", "2.5", "", "nope", "-", "-5", "--", "-h", "--bogus", "in.json", "a.json"]
    junk += [f"{s}={v}" for s in options for v in ("7", "x")]

    def good(a) -> list[str]:
        if a.nargs == 0:
            return [rng.choice(a.option_strings)]
        value = rng.choice(a.choices) if a.choices else rng.choice(["3", "7", " 8 ", "1_0", "0"] if a.type is int else ["Q", "2,1", "[[1, 2]]"])
        return [rng.choice(a.option_strings), value]

    items = [good(a) for a in actions if a.required and rng.random() < 0.9]
    for _ in range(rng.randrange(4)):
        kind = rng.random()
        if kind < 0.4 and actions:
            items.append(good(rng.choice(actions)))
        elif kind < 0.6:
            items.append([rng.choice(options), rng.choice(junk)])
        elif kind < 0.8:
            items.append([rng.choice(["in.json", "-", ""])])
        else:
            items.append([rng.choice(options + junk)])
    rng.shuffle(items)
    return [w for item in items for w in item]


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_plain_reader_agrees_with_argparse(name):
    # every namespace the table reader gives, argparse gives too, with no extras
    sub = cli._COMMANDS[name]
    rng = random.Random(f"plain:{name}")
    read = 0
    for _ in range(1500):
        args = _command_line(sub, rng)
        opts = sub._read_plain(args)
        if opts is None:
            continue
        read += 1
        try:
            base = argparse.ArgumentParser.parse_known_args(sub, list(args))
        except SystemExit:
            pytest.fail(f"the reader took {args!r}, which argparse refuses")
        assert base == (opts, []), args
        assert list(vars(base[0]).items()) == list(vars(opts).items()), args
    # both the reader and the fallback are exercised
    assert 200 <= read <= 1300, read


#: Command lines of every shape the benchmark's workloads send.
_PLAIN_LINES = [
    ["eval"],
    ["gale"],
    ["dim", "--d", "3", "--n", "8", "--seed", "1804289383", "--field", "Q"],
    ["dim", "--d", "5", "--n", "12", "--seed", "846930886", "--field", "Fp:65521"],
    ["eqs", "--d", "4", "--n", "10", "--format", "text"],
    ["transversal", "--n", "9", "--k", "5", "--edges", "[[1, 2, 3, 4, 5], [5, 6, 7, 8, 9]]"],
    ["transversal", "--n", "5", "--k", "3", "--min", "exact"],
]


def test_plain_lines_are_read_without_argparse(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_run", lambda cmd, opts: calls.append((cmd.__name__, opts)))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for args in _PLAIN_LINES:
        main(list(args))
    assert [name for name, _ in calls] == [f"cmd_{args[0]}" for args in _PLAIN_LINES]
    assert calls[2][1] == {"d": 3, "n": 8, "seed": 1804289383, "field_spec": "Q"}
    assert calls[6][1] == {"n": 5, "k": 3, "edges": None, "minimum": "exact"}


def test_plain_reader_string_defaults():
    # argparse converts a string default through `type` when the option is
    # absent; the reader leaves a parser that declares one to argparse, and
    # reads one whose string default has no `type` (as `--field`)
    typed = cli._CommandParser(prog="typed")
    typed.add_argument("--x", type=int, default="5")
    assert typed._read_plain([]) is None and typed._read_plain(["--x", "6"]) is None
    assert typed.parse_args([]).x == 5 and typed.parse_args(["--x", "6"]).x == 6
    untyped = cli._CommandParser(prog="untyped")
    untyped.add_argument("--field", default="Fp:65521")
    assert vars(untyped._read_plain([])) == vars(untyped.parse_args([])) == {"field": "Fp:65521"}
    assert vars(cli._COMMANDS["dim"]._read_plain(["--d", "3", "--n", "8"]))["field_spec"] == "Fp:65521"


@pytest.mark.parametrize("unbuffered, code", [("", 1), ("1", 1)])
def test_a_reader_closing_the_pipe_early_gets_a_quiet_exit(unbuffered, code):
    # 713,713 bytes of generators, far more than a pipe holds, so the write is cut short.
    # Buffered or not, the rest of the bytes are written until BrokenPipeError (exit 1).
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    args = [sys.executable, "-m", "veronese_kit.cli", "eqs", "--d", "2", "--n", "16"]
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=120) == code
        assert proc.stderr.read() == b""


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 300 bytes per write, as a nearly full pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(b[:300])
        self.data += taken
        return len(taken)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_short_raw_writes_are_resumed_until_the_whole_output_is_out(monkeypatch, fmt):
    args = ["eqs", "--d", "3", "--n", "9", "--format", fmt]
    raw = _ShortWrites()
    # the layers of an unbuffered stdout: a write-through text layer on the raw stream
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 0
    out = run(args).output
    assert len(out) > 10_000 and raw.data.decode() == out


#: sha256 of the stdout of `veronese-kit eqs` per output file name
#: (eqs-d<d>-n<n>.<format>), as CI checks them with `sha256sum -c`.
EQS_DIGESTS = os.path.join(os.path.dirname(__file__), "eqs_digests.sha256")


def test_eqs_outputs_match_the_recorded_digests():
    with open(EQS_DIGESTS, encoding="ascii") as f:
        recorded = dict(reversed(line.split()) for line in f)
    assert len(recorded) == 6
    for name, digest in recorded.items():
        shape, fmt = name.split(".")
        d, n = (part[1:] for part in shape.split("-")[1:])
        res = run(["eqs", "--d", d, "--n", n, "--format", fmt])
        assert res.exit_code == 0
        assert hashlib.sha256(res.output.encode()).hexdigest() == digest, name
        if fmt == "json":
            assert res.output == _stdlib_rendering(res.output), name


#: sha256 of the `eval --values` map of a seed-1 generic (2, 9) sample, printed by
#: `json.dumps(values, sort_keys=True)`, per file name (eval-values-d2-n9-<field>.json),
#: as CI checks them with `sha256sum -c`.
EVAL_VALUES_DIGESTS = os.path.join(os.path.dirname(__file__), "eval_values_digests.sha256")


def test_conic_values_match_the_recorded_digests():
    # each value is one 6 x 6 minor of the lift: a sign or scale slip in a minor changes its digest
    with open(EVAL_VALUES_DIGESTS, encoding="ascii") as f:
        recorded = dict(reversed(line.split()) for line in f)
    assert len(recorded) == 2
    for name, digest in recorded.items():
        field = {"Q": "Q", "Fp101": "Fp:101"}[name.removeprefix("eval-values-d2-n9-").removesuffix(".json")]
        sample = run(["sample", "--family", "generic", "--d", "2", "--n", "9", "--field", field, "--seed", "1"]).output
        code, out = run_json(["eval", "--values"], input=sample)
        values = out["payload"]["report"]["values"]
        assert code == 0 and len(values) == comb(9, 6)
        text = json.dumps(values, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_cli_import_loads_no_numpy_or_numba():
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import veronese_kit.cli, sys; assert not {'numpy', 'numba', 'click'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_import_loads_no_command_module():
    # each command imports the modules it runs: importing the CLI (and parsing) loads none of them
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    modules = {f"veronese_kit.{m}" for m in ("verify", "transversal", "gale", "conic")}
    code = f"import veronese_kit.cli, sys; loaded = set({sorted(modules)!r}) & sys.modules.keys(); assert not loaded, loaded"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_eqs_generator_table_loads_no_field_or_matrix_code():
    # a cold `eqs` builds its table from brackets alone: the package's
    # exports and the brackets annotations load neither `fields` nor `linalg`
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, veronese_kit.cli, veronese_kit.brackets as b; b.psi_generators(3); "
        "loaded = {'veronese_kit.fields', 'veronese_kit.linalg'} & sys.modules.keys(); assert not loaded, loaded; "
        "from veronese_kit import Matrix, QQ; assert Matrix.__module__ == 'veronese_kit.linalg' and QQ.p is None"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_suite_choices_are_the_verify_suites():
    from veronese_kit import verify

    assert cli.SUITE_CHOICES == sorted(verify.SUITES) + ["all"]


#: sha256 of each CLI envelope, keyed by its pipeline: every stage gets the
#: previous stage's stdout. Covers eval at d = 2 (with and without --values),
#: 3 and 5 on rnc, chain, degenerate and generic samples over Q, F_101 and
#: F_65521; eval on Q Gale outputs, whose coordinates are not integers; gale;
#: dim. The digests were recorded before the Q/F_p integer view moved into
#: linalg's `_clear` and `_scalar`.
GOLDEN_ENVELOPES = {
    "sample --family rnc --d 2 --n 8 --field Q --seed 1 | eval": "772129676a6c31e1d7a9e3caa983a3d8eec89584ebbfa6584281f23f6fdbad91",
    "sample --family rnc --d 2 --n 8 --field Q --seed 1 | eval --values": "2a1a9c238f1df7151fe2b9f74131b496b600f378694b2bec6ef6cbad8e039fcf",
    "sample --family rnc --d 2 --n 8 --field Fp:101 --seed 1 | eval": "47d622f030d935dc4f4d9359337f188294c0285c6d8596a37aab380cab3ec83e",
    "sample --family rnc --d 2 --n 8 --field Fp:101 --seed 1 | eval --values": "63a0278123221e1565f95ba351183f4c6797fd134b72345520c077955cdb74e2",
    "sample --family rnc --d 2 --n 8 --field Fp:65521 --seed 1 | eval": "b515cc441f9104480ce8c0c44c4b642d5fc71d35747b1ea74c10f47e4cbc0a33",
    "sample --family rnc --d 2 --n 8 --field Fp:65521 --seed 1 | eval --values": "9f22469ff1088bd9a30dd0e61a085e8e9f4c1bd9929887ba2f7e38a864a307c9",
    "sample --family chain --d 2 --n 8 --field Q --seed 1 --degrees 1,1 | eval": "08a521fbc007088aa36e071430e149c47651def9c9648a3a5c16c8cc5e49b615",
    "sample --family chain --d 2 --n 8 --field Q --seed 1 --degrees 1,1 | eval --values": "09ee775d20c7a1eafa1b96782f81636008a2c6c970c2b5e54b682c16bf9921f4",
    "sample --family chain --d 2 --n 8 --field Fp:101 --seed 1 --degrees 1,1 | eval": "914786ade2c4c03ff2ba7ed64b70dc014b6490fb5a1fa8584b6c2f772b7820dd",
    "sample --family chain --d 2 --n 8 --field Fp:101 --seed 1 --degrees 1,1 | eval --values": "d490a988bd8e096bbc73ffa8e629784004ef575ae0180d355be3eb1438f01d3d",
    "sample --family chain --d 2 --n 8 --field Fp:65521 --seed 1 --degrees 1,1 | eval": "4a9f1bbecc92ba85d21d5ec28eb77a0d9bb0b739c324e40d5d253bf2e2876bc0",
    "sample --family chain --d 2 --n 8 --field Fp:65521 --seed 1 --degrees 1,1 | eval --values": "88b889cd5dce4c68db5be4dfa4a4a2423c68a065eec337a0e235a971c3140c23",
    "sample --family degenerate --d 2 --n 8 --field Q --seed 1 | eval": "36347ba098ab6f8f33fcb72ccabaa884f0911dae426610ce012e4ffaf55df019",
    "sample --family degenerate --d 2 --n 8 --field Q --seed 1 | eval --values": "85b090d16807b2a569b3af87dd995d3b513ee28eaf7bc7391c8687f8fc92e40a",
    "sample --family degenerate --d 2 --n 8 --field Fp:101 --seed 1 | eval": "df3f0ad5d8b61cfb4a9b737efa486c9e519a22348a1f3bab8ec103ce08d69fb3",
    "sample --family degenerate --d 2 --n 8 --field Fp:101 --seed 1 | eval --values": "5847c2532f823bcd58928e464c636db51a588b12b4b2d3df4a551ad772136024",
    "sample --family degenerate --d 2 --n 8 --field Fp:65521 --seed 1 | eval": "3be7dbe74d11f1089ba0c177f6b8c49b41cf7dd5b41d745f02ef968e3dfb0c4c",
    "sample --family degenerate --d 2 --n 8 --field Fp:65521 --seed 1 | eval --values": "2eba8f324f03bc034f1fd44cc8c5d77e0a5bf44594e89b9cf3f0fa400fc98f0c",
    "sample --family generic --d 2 --n 8 --field Q --seed 1 | eval": "a2f3934360bd5bc6151a7114c55eb4251085a6cb544b7746623d92c4cd6e595c",
    "sample --family generic --d 2 --n 8 --field Q --seed 1 | eval --values": "0c6cc1f6dea5708b526bb5cd396e5013fc9ee93ff51304a3756c0df86920ed71",
    "sample --family generic --d 2 --n 8 --field Fp:101 --seed 1 | eval": "31649e2e80d92e4e2fb1db85b62d71655dbf4646480466672c3948272aa3b1ec",
    "sample --family generic --d 2 --n 8 --field Fp:101 --seed 1 | eval --values": "6ca1bc52848127aeafcfcc663448ac83dac8d7ff76f45753f1b48f2f975de33f",
    "sample --family generic --d 2 --n 8 --field Fp:65521 --seed 1 | eval": "aa280624e956a610747375056a350122e3fab6feae0c7559be3d5d79377d883d",
    "sample --family generic --d 2 --n 8 --field Fp:65521 --seed 1 | eval --values": "73a02daf0e19691641b021ff105233856e29b9ae8bf8cb2c5ed7b629482516fd",
    "sample --family rnc --d 3 --n 9 --field Q --seed 1 | eval": "c3818b5ae4d2606112a5272a4393722a9be807c59f9342429ebf40b65e9c205e",
    "sample --family rnc --d 3 --n 9 --field Fp:101 --seed 1 | eval": "ec3760d2da2a3e7e5e926eba29b4bb48f64cda895503d0ef0725170b93b6100e",
    "sample --family rnc --d 3 --n 9 --field Fp:65521 --seed 1 | eval": "2da3ae2466b41aab61c8ff4883a60fc276ce311b8e0b317d7ce6a4fd8f202a90",
    "sample --family chain --d 3 --n 9 --field Q --seed 1 --degrees 2,1 | eval": "70b9ed7290489f6369775b13bcb85ca5d9005c5e26e108a0ea6c449193af5133",
    "sample --family chain --d 3 --n 9 --field Fp:101 --seed 1 --degrees 2,1 | eval": "b1316c30f2e55f92d60c9460cea9dc00ec4a3f16ac188a36dacc0000034c65ed",
    "sample --family chain --d 3 --n 9 --field Fp:65521 --seed 1 --degrees 2,1 | eval": "203b8fdc2da05969918259700a5413c3b3657fddcfda1cd571f4dbe49f07d962",
    "sample --family degenerate --d 3 --n 9 --field Q --seed 1 | eval": "b23d1bf8576cde87f61bd74f00f1c90ba2cffff86c1686c1af1abbe99c30470a",
    "sample --family degenerate --d 3 --n 9 --field Fp:101 --seed 1 | eval": "00de99a2f9dc33d467895216ca4cfbc8fa1b9d739ab30eb31d5eaf120048c898",
    "sample --family degenerate --d 3 --n 9 --field Fp:65521 --seed 1 | eval": "a38e4a0a990285f636486e7e962b32588a9289cd140b201e8c79dbf03364becc",
    "sample --family generic --d 3 --n 9 --field Q --seed 1 | eval": "7ce2004badd1e955470dd8a1ed7b491cc33fbe0830748268834fb688227e4c18",
    "sample --family generic --d 3 --n 9 --field Fp:101 --seed 1 | eval": "330d0722f130eb158e28dd9cb906792f8aecc8935cc041c28f082e7fb98e2224",
    "sample --family generic --d 3 --n 9 --field Fp:65521 --seed 1 | eval": "325b2a0e4fd7afc55eccc59cccd0e885a67c49a5e50285e91ee7eb0c8a1bc89d",
    "sample --family rnc --d 5 --n 11 --field Q --seed 1 | eval": "e28663719a3aa5c0499ad0cb2fea0b976c80eafa5cff52b4afbd6fecef404a7c",
    "sample --family rnc --d 5 --n 11 --field Fp:101 --seed 1 | eval": "8fd3fae757dd5995ba989f7807d028b97df47ed38f34f8878cd5ea0c4cfda18d",
    "sample --family rnc --d 5 --n 11 --field Fp:65521 --seed 1 | eval": "0c417f663429474b620d5963fac993daa2bed11bff8645508edc7ccfcd7b4134",
    "sample --family chain --d 5 --n 11 --field Q --seed 1 --degrees 3,2 | eval": "769b53541ef1dbd4b3542a2cb97ba713dc7ec77c7f52d2671484beababf17a6d",
    "sample --family chain --d 5 --n 11 --field Fp:101 --seed 1 --degrees 3,2 | eval": "6b0a76d7a91dedeefe907bd137f520da8f8cce3a50261d12677d87c9118a25d0",
    "sample --family chain --d 5 --n 11 --field Fp:65521 --seed 1 --degrees 3,2 | eval": "3db3ba7ba87ab254118524e0cb4d5e3ccb250126648aaaa1e97c3a8101d94bfc",
    "sample --family degenerate --d 5 --n 11 --field Q --seed 1 | eval": "872126ea96df8d14ae2ee2cac6298f3387b846b57485931696056cbf4b51c20f",
    "sample --family degenerate --d 5 --n 11 --field Fp:101 --seed 1 | eval": "ea4ec23e1d67380db0753987ecf954f80e6f683e609cfb2233c4311ce34b5bdb",
    "sample --family degenerate --d 5 --n 11 --field Fp:65521 --seed 1 | eval": "b4a9c472b7594927b6add1540d4aac4d5d267f65c94220ce07fbfe3e69e88339",
    "sample --family generic --d 5 --n 11 --field Q --seed 1 | eval": "6017a98a0f30727548014c13f6d423d1b019a1e621277ed11e7a4d9fc85bebac",
    "sample --family generic --d 5 --n 11 --field Fp:101 --seed 1 | eval": "9bc27ff256bf01a9bdcc882b9790eab0ff0103fcda130863880a2b202e324067",
    "sample --family generic --d 5 --n 11 --field Fp:65521 --seed 1 | eval": "807e390eec7ddac7faf83d69bc9d68cadb1f88984a14bcf8d583eabfea98f787",
    "sample --family rnc --d 3 --n 9 --field Q --seed 1 | gale": "4f2102bbb26be3cd1f40ce8320bff9270a654811922743bb4129eae1ceecab12",
    "sample --family rnc --d 3 --n 9 --field Fp:101 --seed 1 | gale": "6cd8b6f6f2163ebdc244986fe179d214534c5459aa98749de3c80b2094746541",
    "sample --family rnc --d 3 --n 9 --field Fp:65521 --seed 1 | gale": "cf9358266b7c1869808706d5dece04e42823b2990fcba986df24cd4eb1719b40",
    "sample --family generic --d 5 --n 11 --field Q --seed 1 | gale": "b43f73173e85549ea849d9a3783020a6ceada09d139b0c3ef893685113afd7a0",
    "sample --family generic --d 5 --n 11 --field Fp:101 --seed 1 | gale": "ef5eff3536cd944545a5bdf22fa2021e887be96aa5ac68f81953f1ceb1b622f4",
    "sample --family generic --d 5 --n 11 --field Fp:65521 --seed 1 | gale": "d99bb7df4d15bc40e02c835accc720aa351eb569b2948a4eadf6de099dc3b78d",
    "sample --family rnc --d 3 --n 9 --field Q --seed 1 | gale | eval": "f76c055bae5cf95ca603d25ea6712b9ac057dc6522d5100503042464a53d3762",
    "sample --family generic --d 5 --n 11 --field Q --seed 1 | gale | eval": "f41241a7bbcf212fdc60db6ad69ac0a06c4db6c3157389ff13fc0c828c8f3c3c",
    "sample --family rnc --d 5 --n 11 --field Q --seed 1 | gale | eval": "9561cca2484c8150c804de305d828f2c2e84ac15c21f97a9820645a285ce6b2b",
    "dim --d 2 --n 6 --field Q --seed 1": "6baeebc4c837b4a3f6905ef6e92f83acf4b72430e6d30142c201c9b649899231",
    "dim --d 2 --n 6 --field Fp:101 --seed 1": "e0e7681a5d19f09c038c60e5a3bff61fc578d22101520bc6a6bb8ee92dbdb7e1",
    "dim --d 2 --n 6 --field Fp:65521 --seed 1": "bbc509fd31b103f85f5e3be4a48122b856c89b026c1a822479b159c1be7143c1",
    "dim --d 3 --n 8 --field Q --seed 1": "dd6171419b02c5492129844d5c1cdae6e6862150ccd8b3643b2b279d2ea352e6",
    "dim --d 3 --n 8 --field Fp:101 --seed 1": "8dfb2130890479773424cb291d19235a3b4012a346b18cce3efd799b5c23d188",
    "dim --d 3 --n 8 --field Fp:65521 --seed 1": "b02c6fbe3d475834d1d2ea8f15e151f9011d8dbb26cafd990e97525dbd880312",
    "dim --d 4 --n 10 --field Q --seed 1": "cf1c04b949a870683144544daaa3c9a97a31d0bc2dde07e56181ea8e08c1fca1",
    "dim --d 4 --n 10 --field Fp:101 --seed 1": "95bb494386ea28e6b1517dda294a70846c6a7f2ee3f579d7aed13ee606f308e6",
    "dim --d 4 --n 10 --field Fp:65521 --seed 1": "fa12416ab32ed33ed2cb693bb31adb1df30a1261d0e29fbd3693037153b8aaab",
}


@pytest.mark.parametrize("pipeline", GOLDEN_ENVELOPES)
def test_envelope_is_byte_stable(pipeline):
    out = None
    for stage in pipeline.split(" | "):
        res = run(stage.split(), input=out)
        assert res.exit_code == 0, res.output
        out = res.output
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ENVELOPES[pipeline]
    assert out == _stdlib_rendering(out)


def _stdlib_rendering(out):
    """The stdlib's `sort_keys=True, indent=2` rendering of a printed envelope, which must equal it."""
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "args, code",
    [
        (["transversal", "--n", "9", "--k", "5", "--edges", "[[1,2,3,4,5],[5,6,7,8,9]]"], 0),
        (["transversal", "--n", "6", "--k", "1", "--min", "exact"], 0),
        (["transversal", "--n", "9", "--k", "4", "--min", "greedy"], 0),
        (["verify", "--suite", "gale", "--seed", "0"], 0),
        (["eqs", "--d", "3", "--n", "6"], 2),
        (["transversal", "--n", "5", "--k", "3", "--edges", "[[1,2,2]]"], 2),
        (["eqs", "--d", "8", "--n", "30"], 3),
        (["transversal", "--n", "7", "--k", "3", "--min", "exact"], 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_envelope_is_the_stdlib_rendering(args, code):
    res = run(args)
    assert res.exit_code == code and res.output == _stdlib_rendering(res.output)
