"""The benchmark's three workloads: inputs made from a seed, and the checks on outputs.

Every op is one `veronese-kit` command line plus the document fed to it on
stdin. The shapes of a workload are fixed; the seed only draws the points,
the Jacobian seeds and the hypergraph edges, so every seed gives the same mix
of work. Inputs come from the package's public samplers.

Each op carries a check that recomputes, from the op's own parameters, what a
correct output must satisfy. A check returns None when the output passes and
a one-line reason when it fails.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional

from veronese_kit.configurations import (
    sample_degenerate,
    sample_generic,
    sample_nodal_conic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
)
from veronese_kit.fields import Field
from veronese_kit.serialize import config_to_json

FIELDS = {"Fp": Field.prime(65521), "Q": Field.rationals()}
FIELD_SPECS = {"Fp": "Fp:65521", "Q": "Q"}

#: chain component degrees per d, for the quasi-Veronese samples
CHAIN_DEGREES = {3: (2, 1), 4: (2, 2), 5: (3, 2)}


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple[str, ...]
    stdin: str
    check: Callable[[int, str], Optional[str]]


# -- checks ----------------------------------------------------------------------


def _payload(code: int, out: str):
    if code != 0:
        return None, f"exit code {code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as e:
        return None, f"output is not JSON: {e}"
    if doc.get("status") != "Ok":
        return None, f"status {doc.get('status')!r}"
    return doc["payload"], None


def _check_scan(d: int, n: int, expected: Optional[str]):
    pullbacks = comb(n, 6) if d == 2 else comb(n, d + 4) * comb(d + 4, 6)

    def check(code, out):
        payload, err = _payload(code, out)
        if err:
            return err
        r = payload["report"]
        if r["all_vanish"] is not True:
            return "a pullback does not vanish"
        if r["checked"] != pullbacks:
            return f"checked {r['checked']} != {pullbacks}"
        if expected is not None and r["classification"] != expected:
            return f"classification {r['classification']} != {expected}"
        return None

    return check


def _check_witness(code, out):
    payload, err = _payload(code, out)
    if err:
        return err
    r = payload["report"]
    if r["classification"] != "NotInW" or r["in_V"] is not False or r["all_vanish"]:
        return f"classification {r['classification']}, in_V {r['in_V']}"
    if r["witness"] is None or r["witness"]["value"] in (0, "0"):
        return "missing or zero witness value"
    return None


def _check_gale(d: int, n: int):
    def check(code, out):
        payload, err = _payload(code, out)
        if err:
            return err
        cert = payload["certificate"]
        if cert["ok"] is not True:
            return "certificate not ok"
        if cert["checked"] != comb(n, d + 1):
            return f"certificate checked {cert['checked']} != {comb(n, d + 1)}"
        return None

    return check


def _check_dim(d: int, n: int):
    def check(code, out):
        payload, err = _payload(code, out)
        if err:
            return err
        if not 0 < payload["estimate"] <= d * d + 2 * d + n - 3:
            return f"estimate {payload['estimate']} outside (0, {d * d + 2 * d + n - 3}]"
        return None

    return check


def _check_eqs(d: int, n: int):
    count = comb(n, 6) if d == 2 else comb(n, d + 4) * comb(d + 4, 6)

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if len(lines) != count:
            return f"{len(lines)} lines != {count} generators"
        return None

    return check


def _partitions(n: int, k: int):
    """k-block partitions of [n] as block-label lists (independent of the package)."""

    def rec(i, labels, used):
        if i == n:
            if used == k:
                yield list(labels)
            return
        for b in range(min(used + 1, k)):
            labels.append(b)
            yield from rec(i + 1, labels, max(used, b + 1))
            labels.pop()

    yield from rec(0, [], 0)


def _meets_all_blocks(edge, label_of, k) -> bool:
    return len({label_of[x] for x in edge}) == k


def _check_transversal(n: int, k: int, edges, transversal: bool):
    def check(code, out):
        payload, err = _payload(code, out)
        if err:
            return err
        if payload["transversal"] is not transversal:
            return f"transversal {payload['transversal']} != {transversal}"
        if transversal:
            return None
        blocks = payload["failing_partition"]
        if len(blocks) != k or sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
            return "failing partition is not a k-block partition of [n]"
        label_of = {x: i for i, b in enumerate(blocks) for x in b}
        if any(_meets_all_blocks(e, label_of, k) for e in edges):
            return "an edge is transversal to the failing partition"
        return None

    return check


def _check_min(n: int, k: int):
    def check(code, out):
        payload, err = _payload(code, out)
        if err:
            return err
        m = payload["minimum"]
        edges = m["edges"]
        if m["size"] != len(edges) or m["size"] < max(payload["bounds"].values()):
            return f"size {m['size']} with {len(edges)} edges, bounds {payload['bounds']}"
        for labels in _partitions(n, k):
            label_of = dict(enumerate(labels, start=1))
            if not any(_meets_all_blocks(e, label_of, k) for e in edges):
                return "minimum family misses a partition"
        return None

    return check


# -- inputs ---------------------------------------------------------------------------


def _config_doc(p) -> str:
    return json.dumps(config_to_json(p))


def _draw(sample, family: str, field: Field, d: int, n: int, seed: int):
    if family == "rnc":
        return sample(sample_on_rnc, field, d, n, seed=seed)
    if family == "nodal":
        return sample(sample_nodal_conic, field, n, seed=seed)
    if family == "degenerate":
        return sample(sample_degenerate, field, d, n, seed=seed)
    if family == "generic":
        return sample(sample_generic, field, d, n, seed=seed)
    return sample(sample_quasi_veronese_chain, field, d, n, CHAIN_DEGREES[d], seed=seed)[1]


#: (family, d, n, fields); every pullback vanishes on these. The one F_p-only
#: shape makes the op count odd, so the median falls inside one shape's ops
#: rather than between two.
SCAN_SHAPES = [
    ("rnc", 2, 10, ("Fp", "Q")),
    ("nodal", 2, 12, ("Fp", "Q")),
    ("rnc", 2, 14, ("Fp", "Q")),
    ("rnc", 3, 9, ("Fp", "Q")),
    ("chain", 3, 9, ("Fp", "Q")),
    ("degenerate", 3, 10, ("Fp", "Q")),
    ("rnc", 3, 10, ("Fp", "Q")),
    ("rnc", 4, 10, ("Fp", "Q")),
    ("chain", 4, 10, ("Fp", "Q")),
    ("degenerate", 4, 10, ("Fp", "Q")),
    ("chain", 5, 11, ("Fp", "Q")),
    ("nodal", 2, 11, ("Fp",)),
]

#: (d, n, fields); generic samples, so the first pullback separates. A field
#: listed twice gets two samples; the counts put the median inside the Q ops
#: and the 90th percentile inside the F_p ops at (5, 11).
WITNESS_SHAPES = [
    (3, 9, ("Fp", "Fp", "Q", "Q", "Q")),
    (3, 10, ("Fp", "Q", "Q")),
    (4, 10, ("Fp", "Fp", "Q", "Q", "Q")),
    (4, 11, ("Fp", "Q", "Q")),
    (5, 11, ("Fp", "Fp", "Q", "Q", "Q")),
    (5, 12, ("Fp", "Q", "Q", "Q")),
]


def build_scan(seed: int, sample) -> list[Op]:
    rng = random.Random(f"scan:{seed}")
    ops = []
    for family, d, n, fields in SCAN_SHAPES:
        expected = None if d == 2 else ("InY" if family == "degenerate" else "InW")
        for f in fields:
            p = _draw(sample, family, FIELDS[f], d, n, rng.randrange(2**31))
            ops.append(Op(f"eval {family} d={d} n={n} {f}", ("eval",), _config_doc(p), _check_scan(d, n, expected)))
    return ops


def build_witness(seed: int, sample) -> list[Op]:
    rng = random.Random(f"witness:{seed}")
    ops = []
    for d, n, fields in WITNESS_SHAPES:
        for f in fields:
            p = _draw(sample, "generic", FIELDS[f], d, n, rng.randrange(2**31))
            ops.append(Op(f"eval generic d={d} n={n} {f}", ("eval",), _config_doc(p), _check_witness))
    return ops


# construct: 25 ops a pass, so the median and the 90th percentile also fall
# inside one shape's ops; the (5, 14) certificate and the Q Jacobian at (4, 10)
# are the slow tail.
GALE_SHAPES = [(2, 8, "Fp"), (3, 10, "Fp"), (4, 12, "Fp"), (5, 14, "Fp"), (2, 8, "Q"), (3, 10, "Q"), (5, 12, "Q")]
DIM_SHAPES = [(2, 8, "Fp"), (3, 10, "Fp"), (4, 10, "Fp"), (5, 12, "Fp"), (2, 8, "Q"), (3, 8, "Q"), (4, 10, "Q")]
EQS_SHAPES = [(2, 10), (3, 9), (4, 10), (5, 10)]
#: (n, k, planted): planted hypergraphs miss every edge transversal to one partition
HYPERGRAPH_SHAPES = [(8, 4, False), (9, 5, False), (9, 6, False), (8, 4, True), (9, 5, True)]
MIN_SHAPES = [(5, 3), (7, 6)]


def _hypergraph(rng: random.Random, n: int, k: int, planted: bool):
    """Seeded edges on [n] and whether they are transversal.

    Dropping at most n - k edges from the complete family keeps it transversal:
    every k-block partition has at least n - k + 1 transversal edges. The
    planted family drops every edge transversal to one partition P, so P has
    none. P is {1}, ..., {k-2} and a seeded split of the rest into two blocks,
    which puts it late in the search order whatever the seed.
    """
    edges = list(combinations(range(1, n + 1), k))
    if not planted:
        for _ in range(n - k):
            edges.pop(rng.randrange(len(edges)))
        return edges, True
    rest = [k - 2, k - 1] + [rng.choice((k - 2, k - 1)) for _ in range(n - k)]
    rng.shuffle(rest)
    label_of = dict(enumerate(list(range(k - 2)) + rest, start=1))
    return [e for e in edges if not _meets_all_blocks(e, label_of, k)], False


def build_construct(seed: int, sample) -> list[Op]:
    rng = random.Random(f"construct:{seed}")
    ops = []
    for d, n, f in GALE_SHAPES:
        p = _draw(sample, "rnc", FIELDS[f], d, n, rng.randrange(2**31))
        ops.append(Op(f"gale rnc d={d} n={n} {f}", ("gale",), _config_doc(p), _check_gale(d, n)))
    for d, n, f in DIM_SHAPES:
        args = ("dim", "--d", str(d), "--n", str(n), "--seed", str(rng.randrange(2**31)), "--field", FIELD_SPECS[f])
        ops.append(Op(f"dim d={d} n={n} {f}", args, "", _check_dim(d, n)))
    for d, n in EQS_SHAPES:
        args = ("eqs", "--d", str(d), "--n", str(n), "--format", "text")
        ops.append(Op(f"eqs d={d} n={n}", args, "", _check_eqs(d, n)))
    for n, k, planted in HYPERGRAPH_SHAPES:
        edges, transversal = _hypergraph(rng, n, k, planted)
        args = ("transversal", "--n", str(n), "--k", str(k), "--edges", json.dumps(edges))
        kind = "planted" if planted else "dense"
        ops.append(Op(f"transversal {kind} n={n} k={k}", args, "", _check_transversal(n, k, edges, transversal)))
    for n, k in MIN_SHAPES:
        args = ("transversal", "--n", str(n), "--k", str(k), "--min", "exact")
        ops.append(Op(f"transversal min n={n} k={k}", args, "", _check_min(n, k)))
    return ops


#: workload name -> function making its ops from (seed, sample)
WORKLOADS = {"scan": build_scan, "witness": build_witness, "construct": build_construct}
