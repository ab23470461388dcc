"""Dense univariate polynomials with exact integer coefficients.

Coefficients are plain Python ints, so there is no precision ceiling
anywhere in the package.  A polynomial is stored as a tuple in ascending
degree with no trailing zeros; the zero polynomial is the empty tuple and
reports degree -1 (a sentinel for "minus infinity").  Instances are treated
as immutable values: all arithmetic returns fresh objects.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InternalConsistencyError


class IntPoly:
    """An integer polynomial; ``coeffs[k]`` is the coefficient of t^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise ValueError(f"coefficients must be ints, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _unchecked(cls, coeffs: tuple[int, ...]) -> "IntPoly":
        """Wrap int coefficients that are known to have no trailing zero."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        """Coefficient of t^k; zero beyond the degree."""
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        if k >= len(self.coeffs):
            return 0
        return self.coeffs[k]

    def reverse(self, d: int) -> "IntPoly":
        """The degree-d reversal t^d * p(1/t).

        Requires d >= deg(p); the reversal of zero is zero for any d >= 0.
        """
        if d < 0:
            raise ValueError("reversal degree must be nonnegative")
        if self.is_zero:
            return IntPoly()
        if d < self.degree:
            raise ValueError(f"reversal degree {d} below polynomial degree {self.degree}")
        out = [0] * (d + 1)
        for k, c in enumerate(self.coeffs):
            out[d - k] = c
        return IntPoly(out)

    def __add__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out)

    def __sub__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        # int products are ints, and nonzero leading coefficients stay nonzero
        if isinstance(other, int):
            return IntPoly._unchecked(tuple([c * other for c in self.coeffs]) if other else ())
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] += a * b
        return IntPoly._unchecked(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_down(self) -> "IntPoly":
        """Exact division by t; the constant term must vanish."""
        if self.is_zero:
            return IntPoly()
        if self.coeffs[0] != 0:
            raise InternalConsistencyError("polynomial not divisible by t")
        return IntPoly(self.coeffs[1:])

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def render(self, descending: bool = False) -> str:
        """Human-readable form, e.g. ``1 + 16t + 15t^2``."""
        if self.is_zero:
            return "0"
        terms = []
        ks = range(len(self.coeffs))
        for k in (reversed(ks) if descending else ks):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "t" if mag == 1 else f"{mag}t"
            else:
                body = f"t^{k}" if mag == 1 else f"{mag}t^{k}"
            terms.append((c < 0, body))
        first_neg, first_body = terms[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json_obj(self) -> list[str]:
        """Ascending coefficients as decimal strings (ints never cross float)."""
        return [str(c) for c in self.coeffs]
