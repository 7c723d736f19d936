"""Command-line interface.

Every subcommand emits a versioned JSON envelope on stdout:

    {"schema": "veronese-kit/1", "status": "Ok", "payload": {...}, "log": [...]}

with exit code 0 exactly for status "Ok" (2: PreconditionFailed, 3:
BudgetExceeded). The one exception is `eqs --format text`, whose success
output is the plain generator file (one labeled generator per line); its
errors still arrive as envelopes. Configuration documents follow the schema
in `serialize`; subcommand outputs that contain a configuration can be fed
back to `eval`/`gale` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import import_module
from itertools import chain, combinations
from math import comb
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import BudgetExceededError, VeroneseKitError, check_budget

if TYPE_CHECKING:
    from .brackets import HigherEquationReport
    from .conic import ConicEquationReport

SCHEMA = "veronese-kit/1"

_EXIT_CODES = {"Ok": 0, "PreconditionFailed": 2, "BudgetExceeded": 3}

#: `eqs` emits at most this many generators; larger requests exit 3 before
#: any generator is built. In-process on a 2-core host, the largest admitted
#: shapes take 12-35 ms as text ((5, 12), (2, 18)) and 60-80 ms as JSON, and
#: (14, 18) 0.11-0.12 s as text and 0.41-0.51 s as JSON once its 18,564
#: patterns are built (45-65 ms, in closed form). A fresh process also loads
#: the modules `eqs` runs: `eqs --d 14 --n 18` takes 0.27-0.49 s as text and
#: 0.66-0.86 s as JSON, with Python 3.11.
EQS_GENERATOR_BUDGET = 20_000

#: `verify --suite` takes a suite of `verify.SUITES` by name, or "all"; the
#: names are written out so that parsing loads no suite.
SUITE_CHOICES = ["conic", "dimension", "gale", "higher", "transversal", "all"]


@cache
def _load(module: str):
    """The package module `module`, imported when a command first runs it.

    `cli` itself imports only the standard library and `errors`, so a launch
    loads and compiles only the modules its one command runs. Later calls
    are one cached lookup, under 1 us: an import statement of a loaded
    module costs 1.3 us warm and several us once the CPU caches are cold
    (2-core host, Python 3.11)."""
    return import_module(f"{__package__}.{module}")


@dataclass(frozen=True)
class CommandResult:
    """Envelope for one CLI invocation; `text`, when set, is printed in its place."""

    status: str
    payload: dict
    log: tuple[str, ...] = ()
    text: str | None = None

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]

    def to_document(self) -> dict:
        return {"schema": SCHEMA, "status": self.status, "payload": self.payload, "log": list(self.log)}


def _finish(result: CommandResult) -> None:
    text = result.text
    if text is None:
        text = _load("serialize").envelope_text(result.to_document())
    out, data = sys.stdout, text + "\n"
    try:
        if hasattr(out, "buffer"):
            out.flush()
            out, data = out.buffer, memoryview(data.encode(out.encoding))
        # an unbuffered stream's raw write may take only part of the data: write the rest
        while data:
            data = data[out.write(data) :]
        out.flush()
    except BrokenPipeError:
        # the reader is gone: exit 1 quietly, and let the interpreter's final flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(result.exit_code)


def _fail(status: str, message: str) -> None:
    _finish(CommandResult(status, {"error": message}, (message,)))


def _run(cmd, opts: dict) -> None:
    try:
        result = cmd(**opts)
    except BudgetExceededError as e:
        _fail("BudgetExceeded", str(e))
    except (VeroneseKitError, ValueError) as e:
        # only bad input exits 2; any other exception is a bug and keeps its traceback
        _fail("PreconditionFailed", str(e))
    else:
        _finish(result)


def _decode_json(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        # the decoder recurses once per nesting level
        raise ValueError("malformed JSON: nested too deeply to decode") from e


def _read_json_input(source: str):
    try:
        if source == "-":
            raw = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as f:
                raw = f.read()
    except OSError as e:
        raise ValueError(f"cannot read {source!r}: {e}") from e
    return _decode_json(raw)


def _edges_from_json(doc) -> list[list[int]]:
    """A JSON list of edges, each a list of integers."""
    if not isinstance(doc, list):
        raise ValueError(f"edges must be a JSON list of edges, got {doc!r}")
    # one type pass over every entry; a list it refuses goes edge by edge for the error
    if set(map(type, doc)) <= {list} and set(map(type, chain.from_iterable(doc))) <= {int}:
        return doc
    for e in doc:
        if not isinstance(e, list) or any(isinstance(i, bool) or not isinstance(i, int) for i in e):
            raise ValueError(f"edge {e!r} must be a list of integers")
    return doc


def _extract_config(doc):
    """Accept a bare configuration, a payload with one, or a full envelope."""
    if isinstance(doc, dict):
        if "columns" in doc:
            return _load("serialize").config_from_json(doc)
        for key in ("payload", "config"):
            if key in doc:
                return _extract_config(doc[key])
    raise ValueError("no configuration document found in input")


def _conic_report_json(field, r: ConicEquationReport) -> dict:
    out = {
        "kind": "conic",
        "n": r.n,
        "checked": r.checked,
        "all_vanish": r.all_vanish,
        "nonvanishing": [list(I) for I in r.nonvanishing],
    }
    if r.values is not None:
        out["values"] = {
            ",".join(map(str, I)): field.scalar_to_json(v) for I, v in r.values.items()
        }
    return out


def _higher_report_json(field, r: HigherEquationReport) -> dict:
    witness = None
    if r.witness is not None:
        I, J, v = r.witness
        witness = {"I": list(I), "J": list(J), "value": field.scalar_to_json(v)}
    return {
        "kind": "higher",
        "d": r.d,
        "n": r.n,
        "degenerate": r.degenerate,
        "all_vanish": r.all_vanish,
        "checked": r.checked,
        "witness": witness,
        "classification": r.classification,
        "in_V": r.in_v,
        "note": r.note,
    }


# -- eqs ---------------------------------------------------------------------


def cmd_eqs(d: int, n: int, fmt: str) -> CommandResult:
    """Emit the membership equation generators for (P^d)^n in lex order."""
    brackets = _load("brackets")
    if d < 2:
        raise ValueError(f"generators are defined for d >= 2, got d={d}")
    if d == 2 and n < 6:
        raise ValueError(f"d=2 needs n >= 6, got n={n}")
    if d >= 3 and n < d + 4:
        raise ValueError(f"d={d} needs n >= {d + 4}, got n={n}")
    count = comb(n, 6) if d == 2 else comb(n, d + 4) * comb(d + 4, 6)
    check_budget(count, EQS_GENERATOR_BUDGET, f"(d, n) = ({d}, {n}) has {count} generators")
    # each pattern is compiled once; a window J pulls it back as the index map i -> J[i-1]
    if d == 2:
        size, patterns = 6, [(None, brackets.phi_as_bracket_poly())]
    else:
        size, patterns = d + 4, brackets.psi_generators(d)
    # At n = size the one window is J = (1, ..., n) and it is the output:
    # each bracket's text is its own labels, joined once.
    if n == size and fmt == "text":
        text = cache(lambda F: " ".join(map(str, F)))
        window = ",".join(map(str, range(1, n + 1)))
        return CommandResult("Ok", {}, text="\n".join(
            ("(" if I is None else f"({','.join(map(str, I))}; ") + window + ") "
            + "".join([p if type(p) is str else text(p) for p in brackets.bracket_template(P)])
            for I, P in patterns
        ))
    # Otherwise every window is written by one program, compiled once per
    # call. The program alternates literal text with indices into the
    # window's values: J's labels (0 .. size - 1), J's own label (size), then
    # the text of each bracket that several generators use, once per
    # spelling (labels joined by spaces; in JSON also as a list). A bracket
    # used once is spelled label by label, which costs less than a join.
    # With the literals placed after the values, a window is one C-level
    # gather and one join. The JSON program wraps the same pieces in the
    # scaffolding `envelope_text` writes (`json.dumps(..., indent=2)`, a
    # generator at depth 3); a text holds only digits, spaces and "|(),;+-",
    # none of which JSON escapes.
    uses = Counter(chain.from_iterable(fs for _, P in patterns for _, fs in P.terms))
    shared = [F for F in uses if uses[F] > 1]
    seps = [" "] if fmt == "text" else [" ", ",\n                "]

    def spelled(F, sep: str) -> list:
        return [*chain.from_iterable((sep, i - 1) for i in F)][1:]

    def spelling(k: int) -> dict:
        """Each bracket's pieces with separator seps[k]: its value if shared, else its labels."""
        values = {F: [v] for v, F in enumerate(shared, start=size + 1 + k * len(shared))}
        return values | {F: spelled(F, seps[k]) for F in uses if uses[F] == 1}

    text = spelling(0)
    program = [""]

    def write(P) -> None:
        pieces = brackets.bracket_template(P)
        program[-1] += pieces[0]
        for F, literal in zip(pieces[1::2], pieces[2::2]):
            program.extend(text[F])
            program.append(literal)

    if fmt == "text":
        for I, P in patterns:
            program[-1] += ("\n(" if len(program) > 1 else "(") + ("" if I is None else f"{','.join(map(str, I))}; ")
            program += [size, ") "]
            write(P)
    else:
        listed, window = spelling(1), spelled(range(1, size + 1), ",\n          ")
        for I, P in patterns:
            program[-1] += '\n      {\n        "I": [\n          '
            if I is not None:
                program[-1] += ",\n          ".join(map(str, I)) + '\n        ],\n        "J": [\n          '
            program += window
            program.append(f'\n        ],\n        "ground": {n},\n        "terms": [')
            for t, (coef, factors) in enumerate(P.terms):
                program[-1] += f'{"," if t else ""}\n          {{\n            "coef": {coef},\n            "factors": ['
                for f, F in enumerate(factors):
                    program[-1] += ("," if f else "") + "\n              [\n                "
                    program.extend(listed[F])
                    program.append("\n              ]")
                program[-1] += "\n            ]\n          }"
            program[-1] += '\n        ],\n        "text": "'
            write(P)
            program[-1] += f'",\n        "width": {P.width}\n      }},'
        program[-1] = program[-1][:-1]  # the window's last generator takes no comma
    literals, indices = program[::2], program[1::2]
    base = size + 1 + len(seps) * len(shared)
    gather = itemgetter(*chain.from_iterable(zip(range(base, base + len(indices)), indices)), base + len(indices))
    getters = [itemgetter(*[i - 1 for i in F]) for F in shared]
    windows = [
        "".join(gather((*J, ",".join(J), *[sep.join(g(J)) for sep in seps for g in getters], *literals)))
        for J in combinations([str(j) for j in range(1, n + 1)], size)
    ]
    if fmt == "text":
        return CommandResult("Ok", {}, text="\n".join(windows))
    # the generators are spliced into the envelope of an empty list, as one join
    payload = {"d": d, "n": n, "count": count, "generators": []}
    envelope = _load("serialize").envelope_text(CommandResult("Ok", payload).to_document())
    head, tail = envelope.split('"generators": []')
    return CommandResult("Ok", {}, text="".join([head, '"generators": [', ",".join(windows), "\n    ]", tail]))


# -- eval ---------------------------------------------------------------------


def cmd_eval(input: str, with_values: bool) -> CommandResult:
    """Evaluate the membership equations on a configuration JSON document."""
    p = _extract_config(_read_json_input(input))
    if p.d == 2:
        report = _conic_report_json(p.field, _load("conic").w2n_membership(p, collect_values=with_values))
    elif p.d >= 3:
        report = _higher_report_json(p.field, _load("brackets").wdn_membership(p))
    else:
        raise ValueError(f"no membership equations for d={p.d}")
    return CommandResult("Ok", {"config": _load("serialize").config_to_json(p), "report": report})


# -- gale ----------------------------------------------------------------------


def cmd_gale(input: str) -> CommandResult:
    """Gale-transform a configuration; certifies the minor duality exactly."""
    p = _extract_config(_read_json_input(input))
    gale = _load("gale")
    q = gale.gale_of_config(p)
    cert = gale.duality_certificate(p.coords, q.coords)
    payload = {
        "config": _load("serialize").config_to_json(q),
        "source": {"d": p.d, "n": p.n},
        "certificate": {
            "lambda": p.field.scalar_to_json(cert.lambda_),
            "checked": cert.checked,
            "ok": cert.ok,
        },
    }
    return CommandResult("Ok", payload, (f"certified {cert.checked} complementary minor pairs",))


# -- sample ----------------------------------------------------------------------


def cmd_sample(family, d, n, seed, field_spec, height, degrees, counts, split) -> CommandResult:
    """Produce a seeded configuration from one of the sample families."""
    configurations, serialize = _load("configurations"), _load("serialize")
    if height < 0:
        raise ValueError(f"--height must be >= 0, got {height}")
    field = serialize.parse_field_spec(field_spec)
    payload: dict = {"family": family, "seed": seed, "field": serialize.field_to_json(field)}
    if family == "rnc":
        p = configurations.sample_on_rnc(field, d, n, seed=seed, height=height)
    elif family == "generic":
        p = configurations.sample_generic(field, d, n, seed=seed, height=height)
    elif family == "degenerate":
        p = configurations.sample_degenerate(field, d, n, seed=seed, height=height)
    elif family == "nodal-conic":
        if d != 2:
            raise ValueError("nodal-conic sampling is a d=2 family")
        sp = tuple(int(x) for x in split.split(",")) if split else None
        p = configurations.sample_nodal_conic(field, n, seed=seed, split=sp, height=height)
    else:
        if degrees is None:
            raise ValueError("chain sampling needs --degrees, e.g. --degrees 2,1")
        degs = tuple(int(x) for x in degrees.split(","))
        cts = tuple(int(x) for x in counts.split(",")) if counts else None
        desc, p = configurations.sample_quasi_veronese_chain(field, d, n, degs, seed=seed, counts=cts, height=height)
        payload["descriptor"] = {
            "degrees": list(desc.degrees),
            "components": [
                {
                    "degree": c.degree,
                    "fresh_axes": list(c.fresh_axes),
                    "parent": c.parent,
                }
                for c in desc.components
            ],
        }
    payload["config"] = serialize.config_to_json(p)
    return CommandResult("Ok", payload)


# -- transversal -------------------------------------------------------------------


def cmd_transversal(n, k, edges, minimum) -> CommandResult:
    """Partition-transversality checks, minimum families, and lower bounds."""
    tv = _load("transversal")
    payload: dict = {"n": n, "k": k}
    inc, avg = tv.bounds(n, k)
    payload["bounds"] = {"incidence": inc, "averaging": avg}
    if edges is not None:
        doc = _read_json_input(edges[1:]) if edges.startswith("@") else _decode_json(edges)
        H = tv.Hypergraph(n, k, _edges_from_json(doc))
        part = tv.failing_partition(H)
        payload["edges"] = [list(e) for e in H.edges]
        payload["transversal"] = part is None
        payload["failing_partition"] = None if part is None else [list(b) for b in part.blocks]
    if minimum is not None:
        size, example = tv.min_transversal(n, k, mode=minimum)
        payload["minimum"] = {
            "mode": minimum,
            "size": size,
            "edges": [list(e) for e in example.edges],
        }
    return CommandResult("Ok", payload)


# -- dim -------------------------------------------------------------------------


def cmd_dim(d, n, seed, field_spec) -> CommandResult:
    """Exact Jacobian rank of the curve-configuration map, vs the formula."""
    serialize = _load("serialize")
    field = serialize.parse_field_spec(field_spec)
    est = _load("configurations").dimension_estimate(d, n, seed=seed, field=field)
    formula = d * d + 2 * d + n - 3
    payload = {
        "d": d,
        "n": n,
        "seed": seed,
        "field": serialize.field_to_json(field),
        "estimate": est,
        "formula": formula,
        "agrees": est == formula,
    }
    return CommandResult("Ok", payload)


# -- verify ------------------------------------------------------------------------


def cmd_verify(suite, seed) -> CommandResult:
    """Run the self-verification suites; nonzero exit on any failing check."""
    verify = _load("verify")
    names = sorted(verify.SUITES) if suite == "all" else [suite]
    suites = {}
    log = []
    all_passed = True
    for name in names:
        results = verify.run_suite(name, seed)
        suites[name] = [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seed": r.seed}
            for r in results
        ]
        for r in results:
            log.append(f"{'PASS' if r.passed else 'FAIL'} [{name}] {r.name}: {r.detail}")
            all_passed = all_passed and r.passed
    payload = {"seed": seed, "suites": suites, "all_passed": all_passed}
    status = "Ok" if all_passed else "PreconditionFailed"
    return CommandResult(status, payload, tuple(log))


# -- the parser ----------------------------------------------------------------------


#: Stands in for a required option's value until the command line gives one.
_REQUIRED = object()


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports options it does not know under its
    own usage line, where the top parser would report them under its own.

    A plain command line is read from a table of the parser's own actions
    (`_read_plain`), with no pass of argparse's pattern matcher; anything
    else, help and every usage error included, is parsed by argparse, which
    stays the only declaration of the command line."""

    def parse_known_args(self, args=None, namespace=None):
        if namespace is None and args is not None and (opts := self._read_plain(args)) is not None:
            return opts, []
        opts, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return opts, extra

    @cached_property
    def _plain(self):
        """(defaults, stores, flags, positional), read from this parser's
        actions on its first parse: each dest's starting value as argparse
        sets it (`_REQUIRED` for a required one, then the `set_defaults`
        entries), each option that stores one value by its option strings as
        (dest, conversion, choices), each `BooleanOptionalAction` string as
        (dest, value), and the dest of the one optional positional. None
        when the parser declares anything else, or a string default that
        argparse would convert through its `type` when the option is absent."""
        if self._mutually_exclusive_groups or self.fromfile_prefix_chars or self.prefix_chars != "-":
            return None
        defaults, stores, flags, positional = {}, {}, {}, None
        for a in self._actions:
            kind = type(a)
            if kind is argparse._HelpAction:
                continue
            if a.default is argparse.SUPPRESS or isinstance(a.default, str) and a.type is not None:
                return None
            if kind is argparse._StoreAction and a.option_strings and a.nargs is None:
                stores.update(dict.fromkeys(a.option_strings, (a.dest, a.type or str, a.choices)))
            elif kind is argparse.BooleanOptionalAction:
                flags.update((s, (a.dest, not s.startswith("--no-"))) for s in a.option_strings)
            elif kind is argparse._StoreAction and not a.option_strings and a.nargs == "?" and positional is None and (
                a.type is None and a.choices is None
            ):
                positional = a.dest
            else:
                return None
            defaults.setdefault(a.dest, _REQUIRED if a.required else a.default)
        for dest, value in self._defaults.items():
            defaults.setdefault(dest, value)
        return defaults, stores, flags, positional

    def _read_plain(self, args) -> argparse.Namespace | None:
        """The namespace argparse would give `args`, read from `_plain` when
        every word is plain: a known option and a value that does not start
        with "-", a flag, or the one positional ("-" is one). Every value
        must convert and be among its choices, and every required option
        must be given. None for anything else: "-h", "--", "--opt=value", a
        value such as "-5", an unknown word, a second positional."""
        if self._plain is None:
            return None
        defaults, stores, flags, positional = self._plain
        opts = defaults.copy()
        words = iter(args)
        for word in words:
            if word in flags:
                dest, value = flags[word]
            elif word in stores:
                dest, convert, choices = stores[word]
                value = next(words, "-")  # a missing value reads as "-", which is refused
                if value[:1] == "-":
                    return None
                try:
                    value = convert(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
                if choices is not None and value not in choices:
                    return None
            elif positional is not None and (word[:1] != "-" or word == "-"):
                dest, value, positional = positional, word, None
            else:
                return None
            opts[dest] = value
        if _REQUIRED in opts.values():
            return None
        return argparse.Namespace(**opts)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser, and each subcommand's parser by its name."""
    parser = argparse.ArgumentParser(
        prog="veronese-kit",
        description="Exact equations, Gale transforms and transversality for point configurations.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True, parser_class=_CommandParser)
    by_name = {}

    def command(cmd) -> argparse.ArgumentParser:
        name = cmd.__name__.removeprefix("cmd_")
        sub = by_name[name] = commands.add_parser(name, help=cmd.__doc__, description=cmd.__doc__, allow_abbrev=False)
        sub.set_defaults(cmd=cmd)
        return sub

    p = command(cmd_eqs)
    p.add_argument("--d", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument(
        "--format", dest="fmt", choices=["text", "json"], default="text", help="plain generator file or JSON envelope"
    )
    p = command(cmd_eval)
    p.add_argument("input", nargs="?", default="-")
    p.add_argument(
        "--values", dest="with_values", action=argparse.BooleanOptionalAction, default=False,
        help="include per-subset values (d=2 only)",
    )
    p = command(cmd_gale)
    p.add_argument("input", nargs="?", default="-")
    p = command(cmd_sample)
    p.add_argument("--family", choices=["rnc", "generic", "degenerate", "nodal-conic", "chain"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", dest="field_spec", default="Fp:65521", help="Q, Fp, or Fp:<prime>")
    p.add_argument("--height", type=int, default=100)
    p.add_argument("--degrees", help="chain component degrees, e.g. '2,1'")
    p.add_argument("--counts", help="chain points per component, e.g. '4,3'")
    p.add_argument("--split", help="nodal-conic line split, e.g. '4,3'")
    p = command(cmd_transversal)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--edges", help="JSON list of k-subsets, inline or @file")
    p.add_argument("--min", dest="minimum", choices=["exact", "greedy"])
    p = command(cmd_dim)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", dest="field_spec", default="Fp:65521")
    p = command(cmd_verify)
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--seed", type=int, default=0)
    return parser, by_name


_PARSER, _COMMANDS = _build_parser()


def main(args: list[str] | None = None) -> None:
    """The `veronese-kit` console script: run the subcommand `args` names (default: sys.argv[1:]).

    A first word that names a command is parsed by that command's parser
    alone, as the top parser would hand it the rest; the top parser runs
    only for anything else (no arguments, -h, an unknown word, an option),
    and reports it under its own usage line."""
    args = sys.argv[1:] if args is None else args
    sub = _COMMANDS.get(args[0]) if args else None
    opts = vars(_PARSER.parse_args(args) if sub is None else sub.parse_args(args[1:]))
    _run(opts.pop("cmd"), opts)


# the click-era in-process call, which takes and ignores `prog_name` and `standalone_mode`
main.main = lambda args=None, prog_name=None, standalone_mode=None: main(args)


if __name__ == "__main__":
    main()
