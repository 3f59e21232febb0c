"""Exact scalars, generic instantiation, and the truncated series type that
quantum-minor images are returned in.

Scalars are plain `fractions.Fraction`; there is no floating-point or modular
mode anywhere in the package.  The generator actions and the Yangian series
run on integers over a common denominator (see `gt_module.ActionContext` and
`yangian_tensor._slot_t`), and the singular-vector elimination is
fraction-free; `OperatorSeries.apply` hands its images back as `InvSeries`.
`UniPoly` and `poly_series_quotient` remain as the reference expansion the
ladder tests compare against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable


def as_scalar(x) -> Fraction:
    """Coerce ints, strings like "3/7" and Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def as_integer(x, name: str) -> int:
    """An integral value as an int; ValueError naming `name` on 5/2, never 2."""
    value = x if type(x) is int else as_scalar(x)
    if value.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {x}")
    return int(value)


class UniPoly:
    """Univariate polynomial in the formal variable u, ascending coefficients.

    The zero polynomial has an empty coefficient list; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def linear(c) -> "UniPoly":
        """The monic linear polynomial u + c."""
        return UniPoly((as_scalar(c), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"


class InvSeries:
    """Truncated series constant + c_1 u^{-1} + ... + c_T u^{-T}."""

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant, coeffs: Iterable = ()):
        self.constant = as_scalar(constant)
        self.coeffs = tuple(as_scalar(c) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, t: int) -> Fraction:
        """Coefficient of u^{-t}; t=0 is the constant term."""
        if t == 0:
            return self.constant
        if t <= len(self.coeffs):
            return self.coeffs[t - 1]
        raise IndexError(f"coefficient u^-{t} beyond truncation order {self.order}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvSeries)
            and self.constant == other.constant
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "InvSeries") -> "InvSeries":
        order = min(self.order, other.order)
        return InvSeries(
            self.constant + other.constant,
            [self.coeffs[i] + other.coeffs[i] for i in range(order)],
        )

    def __mul__(self, other: "InvSeries") -> "InvSeries":
        order = min(self.order, other.order)
        a = (self.constant,) + self.coeffs
        b = (other.constant,) + other.coeffs
        out = []
        for t in range(1, order + 1):
            s = Fraction(0)
            for i in range(t + 1):
                if i < len(a) and t - i < len(b):
                    s += a[i] * b[t - i]
            out.append(s)
        return InvSeries(self.constant * other.constant, out)

    def inverse(self) -> "InvSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.constant == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        c0 = 1 / self.constant
        a = (self.constant,) + self.coeffs
        inv = [c0]
        for t in range(1, self.order + 1):
            s = Fraction(0)
            for i in range(1, t + 1):
                if i < len(a):
                    s += a[i] * inv[t - i]
            inv.append(-c0 * s)
        return InvSeries(inv[0], inv[1:])

    def __repr__(self) -> str:
        return f"InvSeries({self.constant}, {[str(c) for c in self.coeffs]})"


def poly_series_quotient(num: UniPoly, den: UniPoly, order: int) -> InvSeries:
    """Expand num/den at u = infinity, truncated at u^{-order}.

    Requires den monic with deg den >= deg num.  The expansion starts at
    u^{-(deg den - deg num)}; the returned series records coefficients of
    u^0 .. u^{-order}.
    """
    if not den.is_monic():
        raise ValueError("denominator must be monic")
    if num.degree > den.degree:
        raise ValueError("numerator degree exceeds denominator degree")
    d = den.degree
    # Reverse both polynomials in x = 1/u and divide as Taylor series at x=0.
    # num(u)/den(u) = x^{d - deg num} * num_rev(x) / den_rev(x).
    gap = d - num.degree if num else order + 1
    num_rev = list(reversed(num.coeffs)) if num else []
    den_rev = list(reversed(den.coeffs))
    # den_rev[0] == 1 since den is monic.
    taylor = []
    for t in range(order + 1):
        s = num_rev[t] if t < len(num_rev) else Fraction(0)
        for i in range(1, t + 1):
            if i < len(den_rev):
                s -= den_rev[i] * taylor[t - i]
        taylor.append(s)
    # Shift by the degree gap: coefficient of u^{-t} is taylor[t - gap].
    full = [Fraction(0)] * (order + 1)
    for t in range(order + 1):
        if 0 <= t - gap <= order:
            if t - gap < len(taylor):
                full[t] = taylor[t - gap]
    return InvSeries(full[0], full[1:])


class CriticalityError(ValueError):
    """Raised when a formula hits coincident same-row entries."""


_PRIME = 997


class GenericAssignment:
    """Deterministic rational values per class id, with non-integer cross-class gaps.

    Each class gets value base_k + r_k / 997 with distinct nonzero residues r_k,
    so differences between distinct classes are never integers, while integer
    offsets added by callers stay inside a class.
    """

    __slots__ = ("class_values",)

    def __init__(self, class_values: dict):
        self.class_values = dict(class_values)

    def value(self, class_id, offset: int = 0) -> Fraction:
        return self.class_values[class_id] + offset


def generic_instantiate(classes, trials_seed: int) -> GenericAssignment:
    """Assign each class id a rational; deterministic in the seed."""
    ids = sorted(classes, key=repr)
    if not ids:
        raise ValueError("need at least one class")
    rng = random.Random(trials_seed)
    residues = rng.sample(range(1, _PRIME), len(ids))
    values = {}
    for cid, res in zip(ids, residues):
        base = rng.randint(-3, 3)
        values[cid] = Fraction(base * _PRIME + res, _PRIME)
    return GenericAssignment(values)
