"""The closed-form Jacobian behind `dimension_estimate`.

Each row holds the first-order partials (the 1-jet) of one affine coordinate
y_r / y_0 of a curve point y = g . (1, t, ..., t^d). The oracle builds the
same rational function as exponent-dict polynomials and differentiates it
formally with `poly_partial` and the quotient rule.
"""

import random
from fractions import Fraction

from oracles import poly_eval, poly_partial

from veronese_kit import configurations
from veronese_kit.configurations import _chart_jacobian, dimension_estimate
from veronese_kit.fields import Field, QQ

FIELDS = (QQ, Field.prime(101), Field.prime(65521))


def coordinate_polys(d, n, i):
    """y_0..y_d of point i as polynomials in (g_00, ..., g_dd, t_1, ..., t_n)."""
    w = d + 1
    polys = []
    for r in range(w):
        poly = {}
        for k in range(w):
            expo = [0] * (w * w + n)
            expo[r * w + k] = 1
            expo[w * w + i] = k
            poly[tuple(expo)] = 1
        polys.append(poly)
    return polys


def quotient_rule_rows(field, d, g_vals, t_vals):
    """Oracle rows: partials of y_r / y_0 over Q by the quotient rule, read in `field`."""
    point = list(g_vals) + list(t_vals)
    rows = []
    for i in range(len(t_vals)):
        den_poly, *num_polys = coordinate_polys(d, len(t_vals), i)
        den = poly_eval(den_poly, point)
        if field.normalize(den) == 0:
            return None
        for num_poly in num_polys:
            num = poly_eval(num_poly, point)
            row = []
            for v in range(len(point)):
                dnum = poly_eval(poly_partial(num_poly, v), point)
                dden = poly_eval(poly_partial(den_poly, v), point)
                row.append(field.normalize((dnum * den - num * dden) / den**2))
            rows.append(row)
    return rows


def test_polynomial_partials_match_formal_derivative():
    rng = random.Random(42)
    for field in FIELDS:
        for d in range(1, 5):
            for n in (1, d + 3):
                for _ in range(3):
                    g = [field.random_scalar(rng, 20) for _ in range((d + 1) ** 2)]
                    t = [field.random_scalar(rng, 20) for _ in range(n)]
                    assert _chart_jacobian(field, d, g, t) == quotient_rule_rows(field, d, g, t)


def test_quotient_rule():
    # d = 1, g = [[1, 2], [3, 4]]: y_0 = 1 + 2t, y_1 = 3 + 4t.
    # At t = 5: y = (11, 23), y' = (2, 4); at t = 0: y = (1, 3), y' = (2, 4).
    g = [QQ.normalize(x) for x in (1, 2, 3, 4)]
    rows = _chart_jacobian(QQ, 1, g, [QQ.normalize(5), QQ.zero])
    F = Fraction
    assert rows == [
        [F(-23, 121), F(-115, 121), F(1, 11), F(5, 11), F(4 * 11 - 23 * 2, 121), 0],
        [-3, 0, 1, 0, 0, 4 * 1 - 3 * 2],
    ]


def test_variable_and_constant():
    d = 3
    ng = (d + 1) ** 2
    for field in FIELDS:
        ts = [field.normalize(2), field.normalize(7)]
        # g = I: the coordinates are the powers t^r, whose derivative is r t^(r-1)
        ident = [field.one if r == k else field.zero for r in range(d + 1) for k in range(d + 1)]
        rows = _chart_jacobian(field, d, ident, ts)
        for i, t in enumerate((2, 7)):
            for r in range(1, d + 1):
                row = rows[i * d + r - 1]
                assert row[ng + i] == field.normalize(r * t ** (r - 1))
                assert row[ng + 1 - i] == 0
        # rows of g proportional to row 0: every coordinate is a constant
        g = [field.normalize(c * x) for c in (1, 2, 5, 9) for x in (3, 1, 4, 1)]
        rows = _chart_jacobian(field, d, g, ts)
        assert all(row[ng] == row[ng + 1] == 0 for row in rows)


def test_division_by_zero_value(monkeypatch):
    # y_0 = 2 + t vanishes at t = -2, so that point lies off the chart
    for field in FIELDS:
        g = [field.normalize(x) for x in (2, 1, 0, 1)]
        t_on, t_off = field.normalize(3), field.normalize(-2)
        assert _chart_jacobian(field, 1, g, [t_on]) is not None
        assert _chart_jacobian(field, 1, g, [t_off]) is None
        assert _chart_jacobian(field, 1, g, [t_on, t_off]) is None

    # dimension_estimate redraws off-chart draws; these seeds each redraw
    on_chart = []

    def spy(*args):
        rows = _chart_jacobian(*args)
        on_chart.append(rows is not None)
        return rows

    monkeypatch.setattr(configurations, "_chart_jacobian", spy)
    for d, n, seed, p, expected in ((2, 6, 5, 101, 11), (3, 7, 0, 7, 18)):
        on_chart.clear()
        assert dimension_estimate(d, n, seed=seed, field=Field.prime(p)) == expected
        assert on_chart[-1] and not all(on_chart)


def test_fp_lane_matches_q_lane():
    rng = random.Random(9)
    for p in (101, 65521):
        fp = Field.prime(p)
        for d in range(1, 5):
            for _ in range(5):
                g = [rng.randint(-30, 30) for _ in range((d + 1) ** 2)]
                t = [rng.randint(-30, 30) for _ in range(d + 2)]
                rows_q = _chart_jacobian(QQ, d, [QQ.normalize(x) for x in g], [QQ.normalize(x) for x in t])
                rows_p = _chart_jacobian(fp, d, [fp.normalize(x) for x in g], [fp.normalize(x) for x in t])
                if rows_p is None:
                    continue  # some y_0 is divisible by p
                assert rows_p == [[fp.normalize(x) for x in row] for row in rows_q]
