"""Self-verification suites: seeded, exact, and budgeted.

Five suites (conic, gale, higher, transversal, dimension) cover the ten
acceptance checks of the package: equation correctness on curve samples,
membership witnesses on generic samples, Gale minor-duality certificates,
the structural identity of the dualized conic polynomial, transversality
agreement and minimum counts, and the Jacobian dimension formula. Each
check is deterministic for a fixed seed and runs in exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import transversal as tv
from .brackets import (
    BracketPolynomial,
    psi_generators,
    wdn_membership,
    y_in_v_dimension_test,
)
from .conic import phi_bracket, phi_det, w2n_membership, v2n_subset_membership
from .configurations import (
    PointConfiguration,
    dimension_estimate,
    is_degenerate,
    is_strongly_nondegenerate,
    make_config,
    random_config,
    random_invertible,
    random_matrix,
    sample_degenerate,
    sample_generic,
    sample_nodal_conic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
)
from .errors import RETRY_BUDGET, BudgetExceededError, RankDeficiencyError
from .fields import Field, QQ
from .gale import affine_gale, double_gale_minor_check, duality_certificate, gale_of_config, standard_gale_pair
from .linalg import rank


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seed: int


FP = Field.prime()

#: Six plane points with a nonzero conic determinant (value 12 over Q),
#: used as the base of separation witnesses.
OFF_CONIC_SIX = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9))


# ---------------------------------------------------------------------------
# conic suite
# ---------------------------------------------------------------------------


def check_conic_equation(seed: int) -> CheckResult:
    """Six-point determinant: vanishes on conics, generically nonzero,
    and agrees exactly with the sign-normalized bracket form."""
    zeros = 0
    for i in range(100):
        field = QQ if i < 50 else FP
        height = 25 if field is QQ else 100
        c = sample_on_rnc(field, 2, 6, seed=seed * 7919 + i, height=height)
        if phi_det(c) == 0:
            zeros += 1
    nonzero = 0
    for i in range(100):
        g = sample_generic(FP, 2, 6, seed=seed * 104729 + i)
        if phi_det(g) != 0:
            nonzero += 1
    agree = 0
    rng = random.Random(seed * 31 + 7)
    for i in range(1000):
        field = QQ if i < 250 else FP
        p = random_config(field, 2, 6, rng, height=20 if field is QQ else 100)
        if phi_det(p) == phi_bracket(p):
            agree += 1
    passed = zeros == 100 and nonzero >= 99 and agree == 1000
    return CheckResult(
        "01 six-point conic equation: vanishing, genericity, bracket form",
        passed,
        f"{zeros}/100 conic samples vanish; {nonzero}/100 generic nonzero; "
        f"{agree}/1000 det==bracket",
        seed,
    )


def check_conic_membership(seed: int) -> CheckResult:
    """Subset equations on 7..9 plane points: vanish on (possibly nodal)
    conic samples; generic samples produce a nonvanishing subset."""
    ok = True
    details = []
    for n in (7, 8, 9):
        vanish = 0
        for i in range(100):
            field = QQ if i % 2 == 0 else FP
            height = 20 if field is QQ else 100
            s = seed * 6151 + n * 257 + i
            if i < 50:
                p = sample_on_rnc(field, 2, n, seed=s, height=height)
            else:
                rng = random.Random(s)
                n1 = rng.randint(1, n - 1)
                p = sample_nodal_conic(field, n, rng=rng, split=(n1, n - n1), height=height)
            r = w2n_membership(p)
            if r.all_vanish and not r.nonvanishing:
                vanish += 1
        witnesses = 0
        for i in range(50):
            g = sample_generic(FP, 2, n, seed=seed * 3571 + n * 101 + i)
            r = w2n_membership(g)
            if not r.all_vanish and r.nonvanishing:
                witnesses += 1
        details.append(f"n={n}: {vanish}/100 curve samples vanish, {witnesses}/50 generic witnessed")
        ok = ok and vanish == 100 and witnesses == 50
    return CheckResult("02 conic membership on 7..9 points", ok, "; ".join(details), seed)


# ---------------------------------------------------------------------------
# gale suite
# ---------------------------------------------------------------------------


def check_minor_duality(seed: int) -> CheckResult:
    """Complementary-minor certificates on random full-rank instances;
    the global scalar is 1 on standard pairs."""
    pairs = ((2, 6), (3, 7), (3, 8), (4, 8), (2, 8))
    certified = 0
    lambda_ones = 0
    total = 0
    for d, n in pairs:
        for i in range(20):
            field = QQ if i % 2 == 0 else FP
            rng = random.Random(seed * 2111 + d * 97 + n * 13 + i)
            total += 1
            for _ in range(RETRY_BUDGET):
                A = random_matrix(field, d + 1, n, rng, 30)
                if rank(A) == d + 1:
                    break
            else:
                raise BudgetExceededError(f"no full-rank {d + 1}x{n} draw in {RETRY_BUDGET} tries")
            cert = duality_certificate(A, affine_gale(A))
            if cert.ok and cert.checked == comb(n, d + 1):
                certified += 1
            try:
                a_std, b_std = standard_gale_pair(A)
            except RankDeficiencyError:  # dependent leading columns: no standard pair
                continue
            if duality_certificate(a_std, b_std).lambda_ == field.one:
                lambda_ones += 1
    passed = certified == total and lambda_ones == total
    return CheckResult(
        "03 Gale minor-duality certificates",
        passed,
        f"{certified}/{total} certificates with zero failures; "
        f"{lambda_ones}/{total} standard pairs with scalar 1",
        seed,
    )


def check_gale_of_curve(seed: int) -> CheckResult:
    """Gale transforms of 7 points on a space curve satisfy the plane conic
    equations; double transforms reproduce the original minors."""
    vanish = 0
    proportional = 0
    strong = 0
    for i in range(30):
        field = QQ if i < 15 else FP
        p = sample_on_rnc(field, 3, 7, seed=seed * 911 + i, height=20 if field is QQ else 100)
        if is_strongly_nondegenerate(p):
            strong += 1
        q = gale_of_config(p)
        if q.d == 2 and q.n == 7 and w2n_membership(q).all_vanish:
            vanish += 1
        if double_gale_minor_check(p):
            proportional += 1
    passed = vanish == 30 and proportional == 30 and strong == 30
    return CheckResult(
        "04 Gale transforms of curve configurations satisfy the conic equations",
        passed,
        f"{strong}/30 strongly nondegenerate; {vanish}/30 transformed configs vanish; "
        f"{proportional}/30 double-transform minor vectors proportional",
        seed,
    )


# ---------------------------------------------------------------------------
# higher suite
# ---------------------------------------------------------------------------


def check_psi_structural(seed: int) -> CheckResult:
    """The dualized conic polynomial on the full pattern matches the
    displayed four-bracket difference term-by-term with signs."""
    displayed = BracketPolynomial(
        7,
        4,
        [
            (1, [(4, 5, 6, 7), (2, 3, 6, 7), (1, 3, 5, 7), (1, 2, 4, 7)]),
            (-1, [(3, 5, 6, 7), (2, 4, 6, 7), (1, 4, 5, 7), (1, 2, 3, 7)]),
        ],
    )
    gens = dict(psi_generators(3))
    got = gens.get((1, 2, 3, 4, 5, 6))
    structural = got == displayed
    sanity = len(gens) == comb(7, 6) and all(g.width == 4 and g.ground == 7 for g in gens.values())
    return CheckResult(
        "05 dualized conic polynomial matches the displayed brackets",
        bool(structural and sanity),
        f"structural equality: {structural}; {len(gens)} generators of width 4",
        seed,
    )


_CHAIN_SHAPES_D3 = (
    ((3,), None),  # irreducible space curve
    ((2, 1), None),  # conic plus a line
    ((1, 1, 1), None),  # chain of three lines
    ((1, 1, 1), "star"),  # three concurrent lines
)
_CHAIN_SHAPES_D4 = (((4,), None), ((3, 1), None), ((2, 2), None), ((2, 1, 1), None), ((1, 1, 1, 1), None))


def _chain_sample(field, d, n, idx, seed):
    shapes = _CHAIN_SHAPES_D3 if d == 3 else _CHAIN_SHAPES_D4
    degrees, mode = shapes[idx % len(shapes)]
    attachments = None
    if mode == "star":
        t = (1, 2 + idx % 5)
        attachments = [(0, t) for _ in range(len(degrees) - 1)]
    _, cfg = sample_quasi_veronese_chain(
        field, d, n, degrees, seed=seed, attachments=attachments, height=15 if field is QQ else 100
    )
    return cfg


def check_higher_membership(seed: int) -> CheckResult:
    """Generator pullbacks vanish on curve, chain and non-spanning samples;
    generic samples are separated by a witness."""
    ok = True
    details = []
    for d, n in ((3, 7), (3, 8), (3, 9), (4, 8)):
        curve = chain = degen = witness = 0
        for i in range(30):
            field = QQ if i % 2 == 0 else FP
            height = 15 if field is QQ else 100
            s = seed * 409 + d * 59 + n * 17 + i
            p = sample_on_rnc(field, d, n, seed=s, height=height)
            r = wdn_membership(p)
            if r.all_vanish and r.classification == "InW" and r.in_v is True:
                curve += 1
            c = _chain_sample(field, d, n, i, s + 1)
            if wdn_membership(c).all_vanish:
                chain += 1
            q = sample_degenerate(field, d, n, seed=s + 2, height=height)
            rq = wdn_membership(q)
            expect_in_v = True if (d, n) != (3, 9) else "unknown (n>=9)"
            if rq.all_vanish and rq.classification == "InY" and rq.in_v == expect_in_v:
                degen += 1
            g = sample_generic(FP, d, n, seed=s + 3)
            rg = wdn_membership(g)
            if (not rg.all_vanish) and rg.witness is not None and rg.classification == "NotInW" and rg.in_v is False:
                witness += 1
        details.append(f"({d},{n}): curve {curve}/30, chain {chain}/30, non-spanning {degen}/30, witness {witness}/30")
        ok = ok and curve == chain == degen == witness == 30
    return CheckResult("06 higher membership: vanishing families and witnesses", ok, "; ".join(details), seed)


def check_exceptional_pairs(seed: int) -> CheckResult:
    """Dimension comparison places the non-spanning locus inside the
    curve-closure for exactly three (d, n) pairs in the scanned range."""
    hits = []
    for d in range(3, 9):
        for n in range(d + 4, d + 9):
            if y_in_v_dimension_test(d, n)[2]:
                hits.append((d, n))
    passed = tuple(hits) == ((3, 7), (3, 8), (4, 8))
    return CheckResult(
        "07 exceptional pairs from the dimension comparison",
        passed,
        f"hits: {hits}",
        seed,
    )


# ---------------------------------------------------------------------------
# transversal suite
# ---------------------------------------------------------------------------


def _random_hypergraph(n: int, k: int, rng) -> tv.Hypergraph:
    all_edges = list(combinations(range(1, n + 1), k))
    m = rng.randint(1, len(all_edges))
    return tv.Hypergraph(n, k, rng.sample(all_edges, m))


def _edge_minors_all_zero(H: tv.Hypergraph, p: PointConfiguration) -> bool:
    return all(p.coords.maximal_minor(e) == 0 for e in H.edges)


def check_transversality_agreement(seed: int) -> CheckResult:
    """The combinatorial test agrees with the equations in both directions:
    failing partitions give separating configurations, transversal families
    survive randomized probes."""
    ok = True
    details = []
    for n, k in ((6, 3), (7, 4), (7, 6), (8, 6)):
        separated = probed = 0
        transversal_count = 0
        for i in range(50):
            rng = random.Random(seed * 15101 + n * 311 + k * 41 + i)
            H = _random_hypergraph(n, k, rng)
            part = tv.failing_partition(H)
            if part is None:
                transversal_count += 1
                good = True
                for j in range(200):
                    if j % 2 == 0:
                        p = random_config(FP, k - 1, n, rng)
                        while is_degenerate(p):
                            p = random_config(FP, k - 1, n, rng)
                    else:
                        p = tv.ydn_witness(_random_partition(n, k, rng), random_invertible(FP, k, rng))
                    if _edge_minors_all_zero(H, p):
                        good = False
                        break
                if k == 6 and good:
                    good = _probe_conic_lane(H, rng)
                probed += good
            else:
                basis = random_invertible(FP, k, rng)
                w = tv.ydn_witness(part, basis)
                picked = tuple(sorted(b[0] for b in part.blocks))
                sep = (
                    rank(w.coords) == k
                    and _edge_minors_all_zero(H, w)
                    and w.coords.maximal_minor(picked) != 0
                )
                if k == 6:
                    q6 = make_config(FP, 2, 6, OFF_CONIC_SIX)
                    v = tv.v2n_witness(part, q6)
                    sep = sep and v2n_subset_membership(v, H.edges).all_vanish
                    sep = sep and not w2n_membership(v).all_vanish
                separated += sep
        total_nt = 50 - transversal_count
        pair_ok = separated == total_nt and probed == transversal_count
        details.append(
            f"({n},{k}): {separated}/{total_nt} separated, {probed}/{transversal_count} probed clean"
        )
        ok = ok and pair_ok
    return CheckResult("08 transversality vs equations, both directions", ok, "; ".join(details), seed)


def _random_partition(n: int, k: int, rng) -> tv.BlockPartition:
    while True:
        labels = [rng.randrange(k) for _ in range(n)]
        if len(set(labels)) == k:
            blocks = [[i + 1 for i, b in enumerate(labels) if b == j] for j in range(k)]
            return tv.BlockPartition(n, blocks)


def _probe_conic_lane(H: tv.Hypergraph, rng) -> bool:
    """Subset verdict must imply the full verdict on mixed plane probes."""
    n = H.n
    for j in range(40):
        kind = j % 4
        if kind == 0:
            p = sample_on_rnc(FP, 2, n, rng=rng)
        elif kind == 1:
            p = random_config(FP, 2, n, rng)
        elif kind == 2:
            part = _random_partition(n, 6, rng)
            p = tv.v2n_witness(part, sample_on_rnc(FP, 2, 6, rng=rng))
        else:
            part = _random_partition(n, 6, rng)
            p = tv.v2n_witness(part, make_config(FP, 2, 6, OFF_CONIC_SIX))
        sub = v2n_subset_membership(p, H.edges).all_vanish
        full = w2n_membership(p).all_vanish
        if sub and not full:
            return False
    return True


def check_minimum_counts(seed: int) -> CheckResult:
    """Exhaustive minimum transversal counts at (5, 3) and (7, 6)."""
    edges53 = list(combinations(range(1, 6), 3))
    small_fail = 0
    candidates = 0
    for size in range(1, 5):
        for combo in combinations(edges53, size):
            candidates += 1
            if not tv.is_transversal(tv.Hypergraph(5, 3, combo)):
                small_fail += 1
    pentagon_ok = tv.is_transversal(tv.pentagon_hypergraph())
    min53 = tv.min_transversal(5, 3)[0]

    edges76 = list(combinations(range(1, 8), 6))
    five_fail = sum(
        0 if tv.is_transversal(tv.Hypergraph(7, 6, c)) else 1
        for c in combinations(edges76, 5)
    )
    six_ok = all(tv.is_transversal(tv.Hypergraph(7, 6, c)) for c in combinations(edges76, 6))
    min76 = tv.min_transversal(7, 6)[0]

    b53 = tv.bounds(5, 3)
    b76 = tv.bounds(7, 6)
    passed = (
        candidates == 385
        and small_fail == 385
        and pentagon_ok
        and min53 == 5
        and five_fail == comb(7, 5)
        and six_ok
        and min76 == 6
        and max(b53) <= 5
        and max(b76) <= 6
    )
    return CheckResult(
        "09 minimum transversal counts",
        passed,
        f"(5,3): {small_fail}/{candidates} small families fail, pentagon ok={pentagon_ok}, min={min53}, bounds={b53}; "
        f"(7,6): {five_fail}/{comb(7, 5)} five-edge fail, all six-edge ok={six_ok}, min={min76}, bounds={b76}",
        seed,
    )


# ---------------------------------------------------------------------------
# dimension suite
# ---------------------------------------------------------------------------


def check_dimension_formula(seed: int) -> CheckResult:
    """Jacobian rank equals d^2 + 2d + n - 3 on at least 9 of 10 seeds per pair.

    Every expectation is the formula value, including 29 at (4, 8). A
    circulated tabulation lists 24 there instead; 24 contradicts the formula
    the tabulation itself cites (and happens to equal dim PGL_5), so it is
    surfaced as an expected failure in the acceptance tests rather than
    asserted here.
    """
    ok = True
    details = []
    for d, n in ((2, 6), (2, 7), (3, 7), (3, 8), (4, 8)):
        expected = d * d + 2 * d + n - 3
        hits = 0
        for s in range(10):
            if dimension_estimate(d, n, seed=seed * 131 + s) == expected:
                hits += 1
        note = " (a circulated tabulation lists 24; see the acceptance xfail)" if (d, n) == (4, 8) else ""
        details.append(f"({d},{n}) -> {expected}: {hits}/10{note}")
        ok = ok and hits >= 9
    return CheckResult("10 Jacobian rank matches the dimension formula", ok, "; ".join(details), seed)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "conic": (check_conic_equation, check_conic_membership),
    "gale": (check_minor_duality, check_gale_of_curve),
    "higher": (check_psi_structural, check_higher_membership, check_exceptional_pairs),
    "transversal": (check_transversality_agreement, check_minimum_counts),
    "dimension": (check_dimension_formula,),
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [check(seed) for check in SUITES[name]]
