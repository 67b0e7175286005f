"""The commutative algebra of rational-valued functions on a finite group.

Functions are stored densely as a tuple of exact values indexed by
element: an integral value is a Python int, any other a Fraction
(see _exact).  Sums, differences and products of ints stay ints, and an
operation with a Fraction operand gives an exact Fraction, so no value
is ever a float.  Values are never divided with `/`: any division goes
through Fraction.  Because Fraction(n) == n and both hash alike, the
storage choice does not show in == or hash.

GroupFunction is an immutable slotted class: assigning an attribute
raises AttributeError.

Translation operators and the difference operators built from them are
the raw material for differentials:

    (R_g f)(h) = f(hg)        (L_g f)(h) = f(gh)
    ell_g f = R_{g^-1} f - f
"""

from fractions import Fraction
from operator import add, mul, neg, sub


def _exact(v):
    """v as an exact value: int when integral, otherwise a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class GroupFunction:
    """A function on group as the tuple of its values, one per element.

    Equal to another when on the same group object with equal values.
    """

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group is other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, self.values))

    def __repr__(self):
        return f"GroupFunction(group={self.group!r}, values={self.values!r})"

    def __call__(self, x):
        return self.values[x]

    def _wrap(self, values):
        return GroupFunction(self.group, tuple(values))

    def __add__(self, other):
        other = as_function(self.group, other)
        return self._wrap(map(add, self.values, other.values))

    __radd__ = __add__

    def __sub__(self, other):
        other = as_function(self.group, other)
        return self._wrap(map(sub, self.values, other.values))

    def __rsub__(self, other):
        return as_function(self.group, other) - self

    def __mul__(self, other):
        other = as_function(self.group, other)
        return self._wrap(map(mul, self.values, other.values))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(map(neg, self.values))

    def is_zero(self):
        return not any(self.values)

    def is_constant(self):
        return all(v == self.values[0] for v in self.values)

    def as_strings(self):
        return [str(v) for v in self.values]


def as_function(group, value):
    """The coefficient helper: a GroupFunction on group, or a constant."""
    if isinstance(value, GroupFunction):
        if value.group is not group:
            raise ValueError("functions live on different groups")
        return value
    return constant(group, value)


def constant(group, value):
    return GroupFunction(group, (_exact(value),) * group.order)


def zero(group):
    return constant(group, 0)


def one(group):
    return constant(group, 1)


def delta(group, g):
    """The indicator function e_g."""
    return GroupFunction(group, tuple(int(h == g) for h in range(group.order)))


def from_values(group, values):
    values = tuple(map(_exact, values))
    if len(values) != group.order:
        raise ValueError("value list does not match the group order")
    return GroupFunction(group, values)


def right_translate(g, f):
    """(R_g f)(h) = f(hg): column g of the Cayley table indexes f."""
    values = f.values
    return GroupFunction(f.group, tuple(values[row[g]] for row in f.group.table))


def left_translate(g, f):
    """(L_g f)(h) = f(gh): row g of the Cayley table indexes f."""
    values = f.values
    return GroupFunction(f.group, tuple(values[x] for x in f.group.table[g]))


def ell(g, f):
    """Difference operator ell_g f = R_{g^-1} f - f."""
    return right_translate(f.group.inverse(g), f) - f

