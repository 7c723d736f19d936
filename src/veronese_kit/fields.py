"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values — `fractions.Fraction` over Q (automatically
in lowest terms with positive denominator) and ints reduced to [0, p) over
F_p. A `Field` instance supplies the arithmetic, which keeps matrices and
samplers field-generic; `linalg` eliminates over both fields on plain ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import RETRY_BUDGET, BudgetExceededError, FieldMismatchError

Scalar = Union[Fraction, int]

#: Default prime: the largest prime below 2^16.
DEFAULT_PRIME = 65521

_MAX_PRIME = (1 << 31) - 1

#: A plain ASCII integer string, the form Q coordinates are usually written in.
_PLAIN_INT = re.compile(r"-?[0-9]+")

#: A list of plain ASCII integer strings, joined by commas.
_PLAIN_INTS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")

#: The largest decimal exponent a Q string may carry: the default digit limit
#: `int` puts on integer strings, so a scalar can be no longer written with an
#: exponent than written out. `Fraction("1e9999999999")` would build
#: 10**9999999999 before anything could refuse it.
_MAX_Q_EXPONENT = 4300

#: The exponent that ends a decimal string, as `Fraction` reads one.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

#: Miller-Rabin bases that decide primality for every p < 3,215,031,751
#: (Pomerance-Selfridge-Wagstaff; Jaeschke), so for every p <= `_MAX_PRIME`.
_MR_BASES = (2, 3, 5, 7)


def _fraction_from_str(s: str) -> Fraction:
    """`Fraction(s)`, but a string ending in an exponent beyond
    `_MAX_Q_EXPONENT` is refused before any power of ten is built."""
    if "e" in s or "E" in s:
        m = _EXPONENT.search(s)
        if m and abs(int(m[1])) > _MAX_Q_EXPONENT:
            raise ValueError(f"exponent of {s!r} exceeds {_MAX_Q_EXPONENT} in absolute value")
    return Fraction(s)


@lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < 3,215,031,751, the least
    strong pseudoprime to all of `_MR_BASES`. Memoized: every F_p document
    decoded builds its `Field.prime(p)` afresh, mostly for the same few p."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (kind 'Q') or a prime field F_p (kind 'Fp').

    Instances are immutable and compare/hash by (kind, p), so two
    `Field.prime(65521)` objects are interchangeable. `p` is None over Q;
    `linalg` reads it as the modulus of its integer core.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise ValueError("Q takes no characteristic")
        elif kind == "Fp":
            if p is None or not (2 < p <= _MAX_PRIME):
                raise ValueError(f"prime must be an odd prime <= {_MAX_PRIME}, got {p}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def rationals(cls) -> "Field":
        return QQ

    @classmethod
    def prime(cls, p: int = DEFAULT_PRIME) -> "Field":
        return cls("Fp", p)

    # -- basic arithmetic ---------------------------------------------------

    def normalize(self, x) -> Scalar:
        """Coerce ints/Fractions/strings into this field's canonical scalar form.

        A Fraction is already canonical over Q and comes back unchanged."""
        if self.kind == "Q":
            if type(x) is Fraction:
                return x
            if isinstance(x, bool):
                raise TypeError("bool is not a scalar")
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            if isinstance(x, str):
                return _fraction_from_str(x)
            raise TypeError(f"cannot coerce {type(x).__name__} into Q")
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return x % self.p  # type: ignore[operator]
        if isinstance(x, Fraction):
            return self.normalize(x.numerator) * self.inv(self.normalize(x.denominator)) % self.p
        if isinstance(x, str):
            return self.normalize(_fraction_from_str(x))
        raise TypeError(f"cannot coerce {type(x).__name__} into F_{self.p}")

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return x + y if self.kind == "Q" else (x + y) % self.p

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        return x * y if self.kind == "Q" else (x * y) % self.p

    def neg(self, x: Scalar) -> Scalar:
        return -x if self.kind == "Q" else (-x) % self.p

    def inv(self, x: Scalar) -> Scalar:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Q":
            return 1 / x  # Fraction division
        return pow(x, self.p - 2, self.p)

    def from_core(self, v: int, scale: int) -> Scalar:
        """The scalar v / scale of a core int v (the integer core of
        `linalg`); scale is 1 over F_p."""
        return Fraction(v, scale) if self.p is None else v % self.p

    def pow(self, x: Scalar, e: int) -> Scalar:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.kind == "Q":
            return x**e
        return pow(x, e, self.p)

    # -- sampling and serialization ----------------------------------------

    def random_scalar(self, rng, height: int = 100) -> Scalar:
        """Uniform integer in [-height, height] over Q; uniform residue over F_p."""
        if self.kind == "Q":
            return Fraction(rng.randint(-height, height))
        return rng.randrange(self.p)

    def random_nonzero(self, rng, height: int = 100) -> Scalar:
        """A nonzero `random_scalar`, drawn at most RETRY_BUDGET times
        (height 0 over Q draws only zeros)."""
        for _ in range(RETRY_BUDGET):
            x = self.random_scalar(rng, height)
            if x != 0:
                return x
        raise BudgetExceededError(f"no nonzero scalar in {RETRY_BUDGET} draws at height {height}")

    def scalar_to_json(self, x: Scalar):
        """Q scalars as fraction strings ("3", "-5/7"); F_p scalars as ints."""
        if self.kind == "Q":
            return str(x)
        return int(x)

    def scalars_to_json(self, xs) -> list:
        """`scalar_to_json` of each scalar of xs, in one pass."""
        return list(map(str if self.p is None else int, xs))

    def ints_from_json(self, vs) -> list[int] | None:
        """The scalars of a list of JSON values as core ints of clearing
        factor 1 (`linalg._clear`), in one pass, when the list is of the one
        common kind: exact ints over F_p (reduced mod p), plain ASCII integer
        strings (-?[0-9]+) over Q (read by `int`). None for any other list,
        and for a string `int` refuses; `scalar_from_json` would give each of
        these ints as its scalar, and it alone decides every other value and
        every error."""
        kinds = set(map(type, vs))
        if self.p is not None:
            return list(map(self.p.__rmod__, vs)) if kinds == {int} else None
        # one match over the joined strings: a string that holds a comma passes it, and `int` refuses that string
        if kinds == {str} and _PLAIN_INTS.fullmatch(",".join(vs)):
            try:
                return list(map(int, vs))
            except ValueError:  # a comma, or longer than int's digit limit
                return None
        return None

    def scalar_from_json(self, v) -> Scalar:
        """The canonical scalar of a JSON value. Over Q a plain ASCII integer
        string (-?[0-9]+) is read by `int`; every other string goes through
        `Fraction`, which decides what is accepted and the error text, once
        an exponent beyond `_MAX_Q_EXPONENT` has been refused."""
        if self.kind == "Q":
            if type(v) is str and _PLAIN_INT.fullmatch(v):
                return Fraction(int(v))
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise TypeError(f"Q scalar must be a fraction string or int, got {v!r}")
            return _fraction_from_str(v) if isinstance(v, str) else Fraction(v)
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"F_p scalar must be an int, got {v!r}")
        return v % self.p

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.kind == "Q" else f"F_{self.p}"


QQ = Field("Q")


def require_same_field(a: Field, b: Field, what: str = "operands") -> Field:
    if a != b:
        raise FieldMismatchError(f"{what} live over different fields: {a} vs {b}")
    return a
