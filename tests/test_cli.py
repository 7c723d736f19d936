import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from itertools import combinations
from math import comb

import pytest
from click.testing import CliRunner

import veronese_kit
import veronese_kit.brackets as brackets
from veronese_kit.brackets import (
    BracketPolynomial,
    format_bracket_poly,
    phi_as_bracket_poly,
    psi_generators,
)
from veronese_kit.cli import SCHEMA, main
from veronese_kit.linalg import MaximalMinors

from oracles import relabel


def run(args, input=None):
    return CliRunner().invoke(main, args, input=input, catch_exceptions=False)


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
    (d, n) for d in range(2, 7) for n in range(max(6, d + 4), 20) if _eqs_count(d, n) <= 2000
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


def test_eqs_builds_no_polynomial_per_generator(monkeypatch):
    built = []
    init = BracketPolynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BracketPolynomial, "__init__", counting_init)
    for d, small, large in ((2, 6, 9), (3, 7, 9)):
        counts = []
        for n in (small, large):
            brackets.psi_pattern.cache_clear()
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


def test_eval_fallback_scan_over_budget_exits_3(monkeypatch):
    # a chain is not in general position; its head windows vanish and
    # C(30, 7) - 24 windows would be left, so no window past the head is tested
    calls = []
    window_vanishes = brackets._window_vanishes
    monkeypatch.setattr(
        brackets, "_window_vanishes", lambda rows, prime: calls.append(1) or window_vanishes(rows, prime)
    )
    res = run(["sample", "--family", "chain", "--d", "3", "--n", "30", "--degrees", "2,1", "--seed", "1"])
    code, doc = run_json(["eval"], input=res.output)
    assert code == 3 and doc["status"] == "BudgetExceeded"
    assert f"leaves {comb(30, 7) - 24} windows to scan, over the budget of 20000" in doc["payload"]["error"]
    assert len(calls) == 24


def test_eval_conic_subset_scan_over_budget_exits_3(monkeypatch):
    # C(30, 6) = 593,775 six-point subsets: a generic sample's lift has rank 6,
    # so only a scan could decide it; a curve sample is one lift rank
    scans = []
    vector = MaximalMinors.vector
    monkeypatch.setattr(MaximalMinors, "vector", lambda self: scans.append(1) or vector(self))
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


def test_gale_over_budget_exits_3():
    # C(20, 10) = 184,756 minor pairs: counted before any certificate elimination
    res = run(["sample", "--family", "generic", "--d", "9", "--n", "20", "--seed", "1"])
    code, doc = run_json(["gale"], input=res.output)
    assert code == 3 and doc["status"] == "BudgetExceeded"
    assert "184756 minors, over the budget of 100000" in doc["payload"]["error"]


def test_eval_rejects_malformed_json():
    code, doc = run_json(["eval"], input="{not json")
    assert code == 2 and doc["status"] == "PreconditionFailed"
    assert "malformed JSON" in doc["payload"]["error"]


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


def test_transversal_budget_exceeded():
    code, doc = run_json(["transversal", "--n", "7", "--k", "5", "--min", "exact"])
    assert code == 3 and doc["status"] == "BudgetExceeded"


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_transversal_minimum_is_refused_before_the_partition_walk(mode):
    # exact: C(11, 6) = 462 candidate edges; greedy: S(14, 7) * C(14, 7) edge tests
    n, k = (11, 6) if mode == "exact" else (14, 7)
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
    ],
)
def test_eval_names_the_bad_column_and_coordinate(col, message):
    doc = json.loads(run(["sample", "--family", "generic", "--d", "2", "--n", "6", "--field", "Q"]).output)
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


def test_internal_errors_are_not_bad_input(monkeypatch):
    import veronese_kit.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr(cli, "w2n_membership", broken)
    sample = run(["sample", "--family", "rnc", "--d", "2", "--n", "7"]).output
    res = CliRunner().invoke(main, ["eval"], input=sample)
    assert isinstance(res.exception, TypeError) and res.exit_code == 1
    assert "PreconditionFailed" not in res.output


def test_cli_import_loads_no_numpy_or_numba():
    src = os.path.dirname(os.path.dirname(veronese_kit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import veronese_kit.cli, sys; assert 'numpy' not in sys.modules and 'numba' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
