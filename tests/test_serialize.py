from fractions import Fraction

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from cli_runner import invoke

from veronese_kit.configurations import make_config, sample_generic
from veronese_kit.fields import Field, QQ
from veronese_kit.serialize import (
    config_from_json,
    config_to_json,
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
    """Reference Q decoding: every string through `Fraction`."""
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise TypeError(f"Q scalar must be a fraction string or int, got {v!r}")
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
def test_q_decoding_matches_fraction(v):
    assert _outcome(QQ.scalar_from_json, v) == _outcome(_fraction_decode, v)
