import enum
import gc
import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from cli_runner import invoke
from oracles import columns_entry_by_entry

from veronese_kit.conic import phi_det
from veronese_kit.configurations import (
    is_degenerate,
    make_config,
    sample_degenerate,
    sample_generic,
    sample_nodal_conic,
    sample_on_rnc,
)
from veronese_kit.fields import _MAX_PRIME, Field, QQ, _is_prime
from veronese_kit.gale import gale_of_config
from veronese_kit.linalg import Matrix, _clear, det, rank
from veronese_kit.serialize import (
    config_from_json,
    config_to_json,
    envelope_text,
    field_from_json,
    field_to_json,
    parse_field_spec,
)

FP = Field.prime()


def test_field_codec_round_trip():
    for f in (QQ, FP, Field.prime(7)):
        assert field_from_json(field_to_json(f)) == f
    assert field_to_json(QQ) == "Q"
    assert field_to_json(FP) == {"Fp": 65521}
    with pytest.raises(ValueError):
        field_from_json({"GF": 9})
    with pytest.raises(ValueError):
        field_from_json("R")


def test_is_prime_matches_a_sieve():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    assert [p for p in range(limit) if _is_prime(p)] == [p for p in range(limit) if sieve[p]]
    # strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5
    for n in (2047, 1373653, 25326001):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="is not prime"):
            Field.prime(n)
    # the least strong pseudoprime to 2, 3, 5, 7 is beyond every admitted prime
    assert _MAX_PRIME < 3_215_031_751
    assert _is_prime(_MAX_PRIME) and Field.prime(_MAX_PRIME).p == _MAX_PRIME


def test_field_prime_memoizes_its_primality_test():
    Field.prime(65521)
    before = _is_prime.cache_info()
    assert Field.prime(65521) == FP
    after = _is_prime.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    # the memo keeps every refusal and its text, on the first call and the next
    above = 2_147_483_659  # the least prime above _MAX_PRIME
    assert above > _MAX_PRIME and _is_prime.__wrapped__(above)
    for p, text in (
        (1, f"prime must be an odd prime <= {_MAX_PRIME}, got 1"),
        (9, "9 is not prime"),
        (65520, "65520 is not prime"),
        (above, f"prime must be an odd prime <= {_MAX_PRIME}, got {above}"),
    ):
        for _ in range(2):
            with pytest.raises(ValueError) as e:
                Field.prime(p)
            assert str(e.value) == text


def test_parse_field_spec():
    assert parse_field_spec("Q") == QQ
    assert parse_field_spec("q") == QQ
    assert parse_field_spec("Fp") == FP
    assert parse_field_spec("Fp:7") == Field.prime(7)
    assert parse_field_spec("fp=11") == Field.prime(11)
    with pytest.raises(ValueError):
        parse_field_spec("R")
    with pytest.raises(ValueError):
        parse_field_spec("Fp:6")  # composite characteristic


def test_config_round_trip_rational():
    p = make_config(QQ, 2, 3, [[1, Fraction(1, 2), 0], [0, 1, Fraction(-5, 7)], [1, 1, 1]])
    doc = config_to_json(p)
    assert doc["columns"][0] == ["1", "1/2", "0"]
    assert doc["columns"][1][2] == "-5/7"
    q = config_from_json(doc)
    assert q.coords == p.coords and q.field == QQ


def test_config_round_trip_prime_field():
    p = sample_generic(FP, 3, 7, seed=1)
    doc = config_to_json(p)
    assert all(isinstance(x, int) for col in doc["columns"] for x in col)
    assert config_from_json(doc).coords == p.coords


def test_config_from_json_errors():
    good = config_to_json(sample_generic(FP, 2, 6, seed=0))
    for strip in ("field", "columns", "d"):
        bad = {k: v for k, v in good.items() if k != strip}
        with pytest.raises(ValueError, match="missing keys"):
            config_from_json(bad)
    with pytest.raises(ValueError, match="columns"):
        config_from_json({**good, "n": 5})
    short = {**good, "columns": [c[:2] for c in good["columns"]]}
    with pytest.raises(ValueError, match="coordinates"):
        config_from_json(short)
    with pytest.raises(ValueError, match="column 1, coordinate 1: F_p scalar must be an int"):
        config_from_json({**good, "columns": [["x"] * 3] * 6})
    with pytest.raises(ValueError):
        config_from_json("not a dict")


def test_codecs_reject_inexact_integers():
    good = config_to_json(sample_generic(FP, 2, 6, seed=0))
    with pytest.raises(ValueError, match="d must be an integer"):
        config_from_json({**good, "d": 2.9})
    with pytest.raises(ValueError, match="d must be an integer"):
        config_from_json({**good, "d": True})
    with pytest.raises(ValueError, match="n must be an integer"):
        config_from_json({**good, "n": 6.0})
    with pytest.raises(ValueError, match="Fp must be an integer"):
        field_from_json({"Fp": 65521.5})
    with pytest.raises(ValueError, match="Fp must be an integer"):
        config_from_json({**good, "field": {"Fp": True}})


def test_bracket_poly_json_shape():
    res = invoke(["eqs", "--d", "2", "--n", "6", "--format", "json"])
    (doc,) = json.loads(res.output)["payload"]["generators"]
    assert doc["I"] == [1, 2, 3, 4, 5, 6] and "J" not in doc
    assert doc["ground"] == 6 and doc["width"] == 3
    assert [t["coef"] for t in doc["terms"]] == [1, -1]
    assert doc["terms"][0]["factors"][0] == [1, 2, 3]
    assert doc["text"].startswith("+ |1 2 3|")


def _fraction_decode(v):
    """Reference Q decoding: every string through `Fraction`, once a string
    ending in an exponent beyond 4300 in absolute value has been refused."""
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise TypeError(f"Q scalar must be a fraction string or int, got {v!r}")
    if isinstance(v, str):
        _, e, tail = v.replace("E", "e").rpartition("e")
        if e and re.fullmatch(r"[-+]?\d+(_\d+)*\s*", tail) and abs(int(tail.rstrip())) > 4300:
            raise ValueError(f"exponent of {v!r} exceeds 4300 in absolute value")
    return Fraction(v)


def _outcome(decode, v):
    try:
        x = decode(v)
    except Exception as e:
        return type(e), str(e)
    return type(x), x


# ASCII and non-ASCII digits (the superscript is a digit `int` refuses),
# signs, whitespace, underscores, fraction bars, decimal points, exponents
_PIECES = ["0", "7", "12", "007", "\u0663", "\uff10", "\u00b2", "\u07c0", "-", "+", " ", "\t", "\n",
           "\u00a0", "\u2003", "_", "/", ".", "e", "E", "x"]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(_PIECES), max_size=8).map("".join),
        st.text(max_size=6),
        st.integers(),
        st.booleans(),
        st.floats(),
        st.none(),
    )
)
@example("")
@example("-")
@example("-0")
@example(" 3")
@example("+4")
@example("1_0")
@example("6/4")
@example("1/0")
@example("9" * 5000)
@example("1e4300")
@example("-.5E-4300 ")
@example("7e4301")
@example("7e7007007007")
@example("12e-1_2120312")
@example("xe99999")
def test_q_decoding_matches_fraction(v):
    assert _outcome(QQ.scalar_from_json, v) == _outcome(_fraction_decode, v)


def test_q_decoding_refuses_huge_exponents_at_once():
    assert QQ.scalar_from_json("1e4300") == 10**4300
    assert QQ.scalar_from_json("1E-4300") == Fraction(1, 10**4300)
    start = time.perf_counter()
    for s in ("1e4301", "1e-4301", "7e7007007007", " -2.5E+1_000_000_000_000\n"):
        with pytest.raises(ValueError, match="exceeds 4300 in absolute value"):
            QQ.scalar_from_json(s)
        for f in (QQ, FP):
            with pytest.raises(ValueError, match="exceeds 4300 in absolute value"):
                f.normalize(s)
    with pytest.raises(ValueError, match=r"column 2, coordinate 1: exponent of '1e9999999999' exceeds"):
        config_from_json({"field": "Q", "d": 1, "n": 2, "columns": [["1", "0"], ["1e9999999999", "1"]]})
    # building any of these powers of ten would take seconds to forever
    assert time.perf_counter() - start < 1.0


F101 = Field.prime(101)

# each column-pass candidate and each near miss, as column 2 of a d = 2 document
_COLUMNS = [
    [1, 2, 3],
    [101, -1, 7],
    [3 * 65521 + 4, -65522, -(10**30)],
    [True, 1, 2],
    [1, 2, False],
    [1.0, 2, 3],
    ["1", "2", "3"],
    ["007", "-0", "12"],
    [" 3", "+4", "6/4"],
    ["1", 2, "3"],
    ["1_0", "2", "3"],
    ["1/0", "2", "3"],
    ["\u0663", "2", "3"],
    ["\uff11", "2", "3"],
    ["2", "3", "\u00b2"],
    ["9" * 60, "-" + "9" * 60, "1"],
    ["1" * 4301, "2", "3"],
    [None, 1, 2],
    [1, 2],
    [1, 2, 3, 4],
    [],
    "123",
    {"1": 1},
    [101, 0, 202],
    [65521, 0, -65521],
    ["0", "-0", "000"],
    [0, 0, 0],
]


def _column_id(column):
    # the 4301-digit column is named by its length, not its digits
    text = repr(column)
    return text if len(text) <= 200 else f"{text[:12]}...({len(text)} chars)"


def _doc(field, column):
    good = config_to_json(sample_generic(field, 2, 6, seed=3))
    good["columns"][1] = column
    return good


def _decoded(doc):
    """The entries of `config_from_json(doc)` with their types, or the error."""
    try:
        coords = config_from_json(doc).coords
    except Exception as e:
        return type(e), str(e)
    return [[(type(x), x) for x in row] for row in coords.entries]


@pytest.mark.parametrize("field", [QQ, F101, FP], ids=str)
@pytest.mark.parametrize("column", _COLUMNS, ids=_column_id)
def test_column_pass_decodes_as_each_entry_would(monkeypatch, field, column):
    doc = _doc(field, column)
    text = json.dumps(doc)
    with_pass = _decoded(doc), invoke(["eval"], input=text)
    # the same document with every column sent entry by entry
    monkeypatch.setattr(Field, "ints_from_json", lambda self, vs: None)
    entry_by_entry = _decoded(doc), invoke(["eval"], input=text)
    assert with_pass == entry_by_entry
    assert with_pass[1].exit_code in (0, 2)


#: Coordinates put into random documents: each is off the common kind of one
#: field or both (so its document goes entry by entry), or on it.
_STRAYS = ["1,2", "\uff11", "+4", " 3", "007", "-0", "1_0", "6/4", "1" * 4301, "1/0", "", "-", True, False, 1.0, 2.5,
           None, 7, -3, 10**30, "12", [1]]


def _random_document(rng, field):
    """A configuration document of random shape over field: mostly of the common kind (ints over F_p, plain
    integer strings over Q), sometimes with a stray coordinate, a ragged column or a column that is no list."""
    d, n = rng.randint(1, 4), rng.randint(1, 5)
    # nonzero over Q, so that no point is all zero
    common = (lambda: str(rng.randint(1, 99) * rng.choice([-1, 1]))) if field.p is None else (
        lambda: rng.randint(-2 * field.p, 2 * field.p)
    )
    cols = [[common() for _ in range(d + 1)] for _ in range(n)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        j = rng.randrange(n)
        if not isinstance(cols[j], list) or not cols[j]:
            continue
        what = rng.random()
        if what < 0.8:
            cols[j][rng.randrange(len(cols[j]))] = rng.choice(_STRAYS)
        elif what < 0.9:
            cols[j] = cols[j][: rng.randrange(d + 1)] if rng.random() < 0.5 else cols[j] + [common()]
        else:
            cols[j] = rng.choice([None, 5, "1,2,3", {"1": 1}])
    return {"field": field_to_json(field), "d": d, "n": n, "columns": cols}


def _matrix_or_error(decode, *args):
    """The int columns, clearing factors and typed entries a decode gives, or its error."""
    try:
        M = decode(*args)
    except ValueError as e:
        return "error", str(e)
    return [list(c) for c in M.int_columns], list(M._factors), [[(type(x), x) for x in r] for r in M.entries]


@pytest.mark.parametrize("field", [QQ, F101, FP], ids=str)
def test_one_pass_decode_matches_entry_by_entry(field):
    rng = random.Random(f"decode:{field}")
    errors = 0
    for _ in range(400):
        doc = _random_document(rng, field)
        ours = _matrix_or_error(lambda: config_from_json(doc).coords)
        assert ours == _matrix_or_error(columns_entry_by_entry, field, doc["d"], doc["columns"]), doc
        errors += ours[0] == "error"
    # both decoded documents and refused ones are reached
    assert 0 < errors < 400


def test_column_pass_takes_only_its_two_kinds():
    assert F101.ints_from_json([101, -1, 7]) == [0, 100, 7]
    assert FP.ints_from_json([3 * 65521 + 4, -65522, 0]) == [4, 65520, 0]
    ints = QQ.ints_from_json(["007", "-0", "-12"])
    assert ints == [7, 0, -12] and all(type(x) is int for x in ints)
    for field, column in [
        (F101, [True, 1, 2]),
        (F101, [1.0, 2, 3]),
        (F101, ["1", "2", "3"]),
        (QQ, [1, 2, 3]),
        (QQ, [" 3", "2", "3"]),
        (QQ, ["+4", "2", "3"]),
        (QQ, ["6/4", "2", "3"]),
        (QQ, ["\u0663", "2", "3"]),
        (QQ, ["1", 2, "3"]),
        # longer than int's digit limit: left to the entry that names its position
        (QQ, ["1" * 4301, "2", "3"]),
    ]:
        assert field.ints_from_json(column) is None


def test_eval_on_integer_q_coordinates_builds_no_fraction_rows(monkeypatch):
    # every `entries` read of a matrix kept as int columns builds its rows through the spy
    reads = []
    build = Matrix._build_entries
    monkeypatch.setattr(Matrix, "_build_entries", lambda self: reads.append("entries") or build(self))
    samples = [
        (sample_generic(QQ, 3, 8, seed=1), "NotInW"),
        (sample_generic(QQ, 5, 12, seed=1), "NotInW"),
        (sample_on_rnc(QQ, 3, 9, seed=2), "InW"),
        (sample_degenerate(QQ, 4, 9, seed=3), "InY"),
    ]
    for p, classification in samples:
        doc = config_to_json(p)
        res = invoke(["eval"], input=json.dumps(doc))
        assert res.exit_code == 0
        payload = json.loads(res.output)["payload"]
        assert payload["report"]["classification"] == classification
        assert payload["config"] == doc
    # d = 2: the lift is built from the decoded int columns
    for p, checked in ((sample_on_rnc(QQ, 2, 10, seed=1), 210), (sample_nodal_conic(QQ, 12, seed=2), 924)):
        res = invoke(["eval"], input=json.dumps(config_to_json(p)))
        assert res.exit_code == 0
        report = json.loads(res.output)["payload"]["report"]
        assert report["all_vanish"] is True and report["checked"] == checked
    # a generic plane sample has lift rank 6, so its nonvanishing list and
    # its values are read from `vector()`
    doc = json.dumps(config_to_json(sample_generic(QQ, 2, 8, seed=4)))
    report = json.loads(invoke(["eval"], input=doc).output)["payload"]["report"]
    values = json.loads(invoke(["eval", "--values"], input=doc).output)["payload"]["report"]["values"]
    assert len(values) == report["checked"] == 28 and report["all_vanish"] is False
    assert report["nonvanishing"] == [list(map(int, I.split(","))) for I, v in values.items() if v != "0"] != []
    assert reads == []
    # the rows are there on demand, as Fractions
    p = sample_degenerate(QQ, 4, 9, seed=3)
    coords = config_from_json(config_to_json(p)).coords
    assert coords == p.coords and type(coords.entries[0][0]) is Fraction
    assert reads == ["entries"]


def test_gale_on_integer_q_coordinates_builds_no_fraction_rows(monkeypatch):
    # the certificate checks A B^t = 0 on the int columns the decoder kept
    built = []
    build = Matrix._build_entries
    monkeypatch.setattr(Matrix, "_build_entries", lambda self: built.append(self.shape) or build(self))
    doc = config_to_json(sample_on_rnc(QQ, 5, 12, seed=3))
    res = invoke(["gale"], input=json.dumps(doc))
    assert res.exit_code == 0
    certificate = json.loads(res.output)["payload"]["certificate"]
    assert certificate["ok"] is True and certificate["checked"] == 924
    assert built == []


def test_gale_on_fraction_q_coordinates_builds_no_fraction_rows(monkeypatch):
    # the kernel basis is built as int columns over clearing factors, and the
    # transform's fraction columns render from them
    built = []
    build = Matrix._build_entries
    monkeypatch.setattr(Matrix, "_build_entries", lambda self: built.append(self.shape) or build(self))
    for p in (sample_on_rnc(QQ, 3, 9, seed=1), sample_generic(QQ, 4, 9, seed=2)):
        doc = config_to_json(p)
        doc["columns"] = [[str(Fraction(x) / j) for x in col] for j, col in enumerate(doc["columns"], start=2)]
        res = invoke(["gale"], input=json.dumps(doc))
        assert res.exit_code == 0
        payload = json.loads(res.output)["payload"]
        assert payload["certificate"]["ok"] is True and payload["certificate"]["checked"] == 126
        assert any("/" in x for col in payload["config"]["columns"] for x in col)
        q = gale_of_config(config_from_json(doc))
        assert config_from_json(payload["config"]).coords == q.coords and q.coords._entries is None
    assert built == []


def test_det_and_rank_on_integer_q_coordinates_build_no_fraction_rows(monkeypatch):
    # det, rank, phi_det and is_degenerate read the int columns the decoder kept
    generic = sample_generic(QQ, 3, 8, seed=1)
    square = make_config(QQ, 3, 4, generic.points()[:4])
    on_conic, off_conic = sample_on_rnc(QQ, 2, 6, seed=1), sample_generic(QQ, 2, 6, seed=4)
    samples = [generic, sample_degenerate(QQ, 4, 9, seed=3), square, on_conic, off_conic]
    decoded = [config_from_json(config_to_json(p)) for p in samples]
    want_det, want_phi = det(square.coords), phi_det(off_conic)
    built = []
    build = Matrix._build_entries
    monkeypatch.setattr(Matrix, "_build_entries", lambda self: built.append(self.shape) or build(self))
    ranks = [(rank(q.coords), is_degenerate(q)) for q in decoded]
    assert ranks == [(4, False), (4, True), (4, False), (3, False), (3, False)]
    assert det(decoded[2].coords) == want_det != 0
    assert phi_det(decoded[3]) == 0 != phi_det(decoded[4]) == want_phi
    assert built == []


@pytest.mark.parametrize("field", [F101, FP], ids=str)
def test_zero_column_after_reduction_is_rejected(field):
    res = invoke(["eval"], input=json.dumps(_doc(field, [field.p, 0, 2 * field.p])))
    assert res.exit_code == 2
    assert json.loads(res.output)["payload"]["error"] == "point 2 has all-zero coordinates"


@pytest.mark.parametrize("field", [QQ, F101, FP], ids=str)
def test_column_encoding_matches_each_entry(field):
    F = Fraction
    p = make_config(field, 2, 4, [[1, F(-5, 7), 0], [F(3, 2), 2, -1], [F(1, 3), 0, 7], [0, 0, F(-9, 4)]])
    doc = config_to_json(p)
    assert doc["columns"] == [[field.scalar_to_json(x) for x in col] for col in p.points()]
    assert all(type(x) is (str if field.p is None else int) for col in doc["columns"] for x in col)
    if field.p is None:
        assert doc["columns"][0] == ["1", "-5/7", "0"]
    assert config_from_json(doc).coords == p.coords
    # F_p residues are core ints already: `_clear` hands them back as they are
    for row in p.coords.entries:
        ints, m = _clear(row, field.p)
        if field.p:
            assert ints is row and m == 1
        else:
            assert [F(x, m) for x in ints] == list(row)


class _Small(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


#: documents of kinds no envelope holds today, rendered as the stdlib renders them
_HAND_DOCS = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}], "d": [{}, [[]]], "e": ()},
    [True, False, True],
    [1, True, 0, False, None],
    [1, 2.5, "x"],
    ("a", (1, 2), [3, ("x", "y")], {"t": (None,)}),
    {"s": ["é", "\u2603", "\U0001f600", "\x00\x1f\x7f", '"', "\\", "tab\there\nnl"]},
    {"é\"\\\u2603": 1, "\x00": [2], "": "", "B": 3, "a": 4},
    [2**100, -(2**127), 0, -1, 10**40],
    {"f": [1.5, -0.0, float("nan"), float("inf"), float("-inf")], "g": 1e300},
    [_Small.ONE, _Small.ONE],
    {"k": [_Small.ONE, 2], "t": [_Text("q"), "r"], "u": _Text("\u00e9")},
    "top",
    17,
    None,
    True,
    -0.0,
]


@pytest.mark.parametrize("doc", _HAND_DOCS, ids=repr)
def test_envelope_text_matches_stdlib_on_hand_made_documents(doc):
    assert envelope_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.lists(st.integers(), max_size=6)
    | st.lists(st.text(), max_size=6)
    # lists of leaf lists, ragged and with empty rows: rows of ints, of strings, of bools, of ints and strings
    | st.lists(st.lists(st.integers(), max_size=4), max_size=4)
    | st.lists(st.lists(st.text(), max_size=4), max_size=4)
    | st.lists(st.lists(st.booleans(), min_size=1, max_size=4), max_size=4)
    | st.lists(st.lists(st.integers() | st.text(), min_size=1, max_size=4), max_size=4)
    # and of tuples, in a list or a tuple
    | st.lists(st.lists(st.integers(), min_size=1, max_size=4).map(tuple), max_size=4)
    | st.lists(st.lists(st.text(), min_size=1, max_size=4), min_size=1, max_size=4).map(tuple),
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_envelope_text_matches_stdlib_on_random_documents(doc):
    assert envelope_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": 1, 2: "b"}, {"x": [{None: 0}]}, {(1,): 2}], ids=repr)
def test_envelope_text_rejects_non_string_keys(doc):
    with pytest.raises(TypeError):
        envelope_text(doc)


def test_envelope_text_rejects_what_json_rejects():
    for value in (object(), {1, 2}, b"x", Fraction(1, 2)):
        with pytest.raises(TypeError) as stdlib:
            json.dumps({"v": [value]}, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as ours:
            envelope_text({"v": [value]})
        assert str(ours.value) == str(stdlib.value)


def test_envelope_text_makes_no_reference_cycles():
    config = invoke(["sample", "--family", "generic", "--d", "3", "--n", "9", "--field", "Q", "--seed", "1"]).output
    docs = [json.loads(config)] + [
        json.loads(invoke(args, input=config).output)
        for args in (["eval"], ["gale"], ["transversal", "--n", "7", "--k", "3", "--min", "greedy"])
    ]
    docs += _HAND_DOCS
    gc.collect()
    gc.disable()
    try:
        for i in range(1000):
            envelope_text(docs[i % len(docs)])
        # a renderer that closed over itself would leave one cycle per call
        assert gc.collect() == 0
    finally:
        gc.enable()
