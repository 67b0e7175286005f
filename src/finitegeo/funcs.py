"""The commutative algebra of rational-valued functions on a finite group.

Functions are stored densely as a tuple of exact values indexed by
element: an integral value is a Python int, any other a Fraction
(see _exact).  Sums, differences and products of ints stay ints, and an
operation with a Fraction operand gives an exact Fraction, so no value
is ever a float.  Values are never divided with `/`: any division goes
through Fraction.  Because Fraction(n) == n and both hash alike, the
storage choice does not show in == or hash.

GroupFunction is an immutable slotted class: assigning an attribute
raises AttributeError.  Its + - * take a function on the same group
object or a scalar, which acts as the constant function.

Tensor and connection coefficients have one canonical form (canonical):
an exact scalar when constant, a GroupFunction only when its values
differ.  as_function turns either back into a GroupFunction, as the read
surfaces Tensor.coeffs, Tensor.coeff, Connection.gamma and
Connection.gamma_value do.

Translation operators and the difference operators built from them are
the raw material for differentials; a translate of a scalar is the
scalar itself:

    (R_g f)(h) = f(hg)        (L_g f)(h) = f(gh)
    ell_g f = R_{g^-1} f - f
"""

from fractions import Fraction
from itertools import repeat
from operator import add, mul, neg, sub

from .errors import CalculusMismatch


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

    def _apply(self, op, other):
        """op on the values of self and of other, a function or a scalar."""
        if other.__class__ is GroupFunction:
            if other.group is not self.group:
                raise CalculusMismatch("functions live on different groups")
            return self._wrap(map(op, self.values, other.values))
        return self._wrap(map(op, self.values, repeat(_exact(other))))

    def __add__(self, other):
        return self._apply(add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(sub, other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return self._apply(mul, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(map(neg, self.values))

    def is_zero(self):
        return not any(self.values)

    def is_constant(self):
        return all(v == self.values[0] for v in self.values)

    def as_strings(self):
        return [str(v) for v in self.values]


def canonical(group, value):
    """A coefficient in canonical form: the exact scalar of a scalar or of
    a constant function on group, otherwise the GroupFunction itself."""
    if value.__class__ is not GroupFunction:
        return _exact(value)
    if value.group is not group:
        raise CalculusMismatch("functions live on different groups")
    values = value.values
    if values.count(values[0]) != len(values):
        return value
    return _exact(values[0])


def as_function(group, value):
    """A coefficient as a GroupFunction on group: a scalar becomes the
    constant function."""
    if value.__class__ is GroupFunction:
        if value.group is not group:
            raise CalculusMismatch("functions live on different groups")
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
    if f.__class__ is not GroupFunction:
        return f
    values = f.values
    return GroupFunction(f.group, tuple(values[row[g]] for row in f.group.table))


def left_translate(g, f):
    """(L_g f)(h) = f(gh): row g of the Cayley table indexes f."""
    if f.__class__ is not GroupFunction:
        return f
    values = f.values
    return GroupFunction(f.group, tuple(values[x] for x in f.group.table[g]))


def ell(g, f):
    """Difference operator ell_g f = R_{g^-1} f - f; zero for a scalar."""
    if f.__class__ is not GroupFunction:
        return 0
    return right_translate(f.group.inverse(g), f) - f

