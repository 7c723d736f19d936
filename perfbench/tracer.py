"""Spans and counters for the benchmark's traced run, recorded from outside the package.

The traced run wraps public functions of each `veronese_kit` layer. A function
is replaced in its defining module and in every package module that imported
it by name (`from .linalg import rank`), because such an import holds its own
reference that a wrapper installed only at home would miss. Methods are
replaced on their class. A target that no longer exists is recorded as absent;
its metrics read 0.

Each span records (name, start, end, parent, op). Spans stay in memory; the
first traced pass is written out at the end. A span's self time is its
duration minus the durations of its direct children: the program is single
threaded, so children are nested and disjoint.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import ceil, comb
from time import perf_counter

PACKAGE = "veronese_kit"

KERNELS = "veronese_kit._kernels"
LINALG = "veronese_kit.linalg"
BRACKETS = "veronese_kit.brackets"
CONIC = "veronese_kit.conic"
GALE = "veronese_kit.gale"
CONFIGURATIONS = "veronese_kit.configurations"
TRANSVERSAL = "veronese_kit.transversal"
SERIALIZE = "veronese_kit.serialize"


class Tracer:
    """Collects spans, self times and counters; `op` tags spans with the running op."""

    def __init__(self):
        self.op = None
        self.keep_spans = True
        self.spans: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.kernel_shapes: Counter = Counter()
        self.absent: set[str] = set()
        self.passes = 0
        self.first_pass: tuple[dict, dict] = ({}, {})
        self._stack: list[list] = []
        self.fill_depth = 0
        self._minor_books: dict[int, tuple] = {}

    def call(self, name, fn, args, kwargs):
        """fn(*args, **kwargs) as a span called `name`, inside the span now open."""
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, -1]
        if self.keep_spans:
            frame[1] = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[1] if parent else -1, self.op])
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[0]
            if parent is not None:
                parent[0] += dur
            if frame[1] >= 0:
                span = self.spans[frame[1]]
                span[1], span[2] = start, end

    def end_op(self) -> None:
        """Close the per-instance minor books of the op that just finished."""
        for _, filled, read in self._minor_books.values():
            self.counts["linalg.minors.unused"] += len(filled - read)
        self._minor_books.clear()

    def end_pass(self) -> None:
        """Snapshot the counters after the first pass; later passes keep no spans."""
        if self.passes == 0:
            self.first_pass = (dict(self.counts), dict(self.kernel_shapes))
            self.keep_spans = False
        self.passes += 1

    def counts_repeat(self) -> bool:
        """True when every pass made exactly the counts of the first."""
        first = self.first_pass[0]
        return all(self.counts[k] == self.passes * v for k, v in first.items()) and set(self.counts) == set(first)

    def book(self, mm):
        """(instance, minors filled, minors read) of a minor cache, kept until the op ends."""
        book = self._minor_books.get(id(mm))
        if book is None:
            book = self._minor_books[id(mm)] = (mm, set(), set())
        return book


# -- wrapper factories: (tracer, name, original) -> wrapper ------------------------


def span(before=None, after=None):
    """A span around each call; `before(tr, name, args)` and `after(tr, result)` count."""

    def factory(tr, name, fn):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tr, name, args)
            result = tr.call(name, fn, args, kwargs)
            if after is not None:
                after(tr, result)
            return result

        return wrapper

    return factory


def counted(tr, name, fn):
    def wrapper(*args, **kwargs):
        tr.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def counted_yields(tr, name, fn):
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tr.counts[name] += 1
            yield item

    return wrapper


def _calls(tr, name, args):
    tr.counts[name + ".calls"] += 1


def _kernel_call(tr, name, args):
    a = args[0]
    tr.counts[name + ".calls"] += 1
    tr.counts["kernels.bytes_in"] += a.nbytes
    tr.kernel_shapes[(name, tuple(a.shape))] += 1
    if name == "kernels.batch_det":
        tr.counts["kernels.batch_det.matrices"] += a.shape[0]


def _wdn_report(tr, result):
    report = result[0] if isinstance(result, tuple) else result
    d, n, checked = (getattr(report, k, None) for k in ("d", "n", "checked"))
    if None in (d, n, checked) or n < d + 4:
        return
    per_window = comb(d + 4, 6)
    tr.counts["brackets.pullbacks"] += checked
    tr.counts["brackets.pullbacks_possible"] += comb(n, d + 4) * per_window
    tr.counts["brackets.windows"] += ceil(checked / per_window)


def _checked_into(key):
    def after(tr, result):
        checked = getattr(result, "checked", None)
        if checked is not None:
            tr.counts[key] += checked

    return after


def _minors_get(tr, name, fn):
    """Counts external reads; a read that grows the cache computed its minor."""

    def wrapper(self, J, *rest, **kwargs):
        if tr.fill_depth:  # part of a fill, counted there
            return tr.call(name, fn, (self, J) + rest, kwargs)
        cache = getattr(self, "_cache", None)
        size = len(cache) if cache is not None else 0
        result = tr.call(name, fn, (self, J) + rest, kwargs)
        tr.counts["linalg.minors.get_calls"] += 1
        if cache is not None:
            grown = len(cache) - size
            tr.counts["linalg.minors.computed"] += grown
            tr.counts["linalg.minors.get_misses"] += grown
            tr.book(self)[2].add(tuple(J))
        return result

    return wrapper


def _minors_fill(tr, name, fn):
    def wrapper(self, *args, **kwargs):
        cache = getattr(self, "_cache", None)
        before = set(cache) if cache is not None else set()
        tr.fill_depth += 1
        try:
            result = tr.call(name, fn, (self,) + args, kwargs)
        finally:
            tr.fill_depth -= 1
        if cache is not None:
            new = set(cache) - before
            tr.counts["linalg.minors.computed"] += len(new)
            tr.book(self)[1].update(new)
        return result

    return wrapper


# (span or counter name, module, attribute, wrapper factory)
TARGETS = [
    ("kernels.det", KERNELS, "fp_det", span(_kernel_call)),
    ("kernels.batch_det", KERNELS, "fp_batch_det", span(_kernel_call)),
    ("kernels.rank", KERNELS, "fp_rank", span(_kernel_call)),
    ("kernels.rref", KERNELS, "fp_rref", span(_kernel_call)),
    ("linalg.det", LINALG, "det", span(_calls)),
    ("linalg.rank", LINALG, "rank", span(_calls)),
    ("linalg.rref", LINALG, "rref", span()),
    ("linalg.minors.get", LINALG, "MaximalMinors.get", _minors_get),
    ("linalg.minors.fill", LINALG, "MaximalMinors.ensure_all", _minors_fill),
    ("linalg.index_sets", LINALG, "as_index_set", counted),
    ("linalg.matrices_built", LINALG, "Matrix.__init__", counted),
    ("brackets.wdn", BRACKETS, "wdn_membership", span(after=_wdn_report)),
    ("brackets.relabel", BRACKETS, "relabel", span(_calls)),
    ("brackets.polys_built", BRACKETS, "BracketPolynomial.__init__", counted),
    ("brackets.eval", BRACKETS, "eval_bracket_poly", span(_calls)),
    ("brackets.format", BRACKETS, "format_bracket_poly", span()),
    ("conic.w2n", CONIC, "w2n_membership", span(after=_checked_into("conic.subsets"))),
    ("conic.lift", CONIC, "lift_matrix", span()),
    ("gale.transform", GALE, "gale_of_config", span()),
    ("gale.transform", GALE, "affine_gale", span()),
    ("gale.strong_check", CONFIGURATIONS, "strong_nondegeneracy_witness", span()),
    ("gale.certificate", GALE, "duality_certificate", span(after=_checked_into("gale.certificate.pairs"))),
    ("configurations.is_degenerate", CONFIGURATIONS, "is_degenerate", span()),
    ("jets", CONFIGURATIONS, "dimension_estimate", span()),
    ("transversal.failing_partition", TRANSVERSAL, "failing_partition", span()),
    ("transversal.partitions", TRANSVERSAL, "set_partitions", counted_yields),
    ("transversal.min", TRANSVERSAL, "min_transversal", span()),
    ("serialize.decode", SERIALIZE, "config_from_json", span()),
    ("serialize.decode", SERIALIZE, "field_from_json", span()),
    ("serialize.decode", SERIALIZE, "parse_field_spec", span()),
    ("serialize.encode", SERIALIZE, "config_to_json", span()),
    ("serialize.encode", SERIALIZE, "field_to_json", span()),
    ("serialize.encode", SERIALIZE, "bracket_poly_to_json", span()),
]


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Installed:
    """The wrappers of one tracer, installed until `restore` puts the originals back."""

    def __init__(self, tr: Tracer):
        self._saved: list[tuple[object, str, object]] = []
        modules = _package_modules()
        for name, module_name, attr, factory in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(member) if owner is not None else None
            if original is None:
                tr.absent.add(name)
                continue
            wrapper = factory(tr, name, original)
            if owner_name:
                self._replace(owner, member, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
