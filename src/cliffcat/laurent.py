"""Exact Laurent polynomial arithmetic over the integers.

One implementation, two variable sets: LaurentZ in q, keyed by int exponents,
and its subclass LaurentZH in q and h, keyed by (qexp, hexp).  Both are sparse
maps to nonzero integer coefficients; Python integers are arbitrary precision.
"""

from __future__ import annotations

import operator


class LaurentZ:
    """Laurent polynomial in q with integer coefficients, dict {exp: coeff}."""

    __slots__ = ("coeffs",)
    # a subclass sets these three: variable names, unit exponent, exponent sum
    names = ("q",)
    unit_exp = 0
    add_exps = staticmethod(operator.add)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def unit(cls):
        return cls({cls.unit_exp: 1})

    @classmethod
    def q_power(cls, e, coeff=1):
        return LaurentZ({e: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return type(self)(out)

    def __mul__(self, other):
        add = self.add_exps
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return type(self)(out)

    def items(self):
        return sorted(self.coeffs.items())

    def to_json(self):
        return [[*_exponents(e), c] for e, c in self.items()]

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())})"

    def __str__(self):
        return format_sum([(exps, coeff, None) for exps, coeff in self.items()], self.names)


class LaurentZH(LaurentZ):
    """Laurent polynomial in q and h, dict {(qexp, hexp): coeff}."""

    __slots__ = ()
    names = ("q", "h")
    unit_exp = (0, 0)

    @staticmethod
    def add_exps(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def monomial(cls, qexp, hexp, coeff=1):
        return cls({(qexp, hexp): coeff})

    def specialize_h(self):
        """Substitute h := -1 (a ring map; h^-1 goes to -1 as well)."""
        out = {}
        for (qe, he), c in self.coeffs.items():
            out[qe] = out.get(qe, 0) + (-c if he % 2 else c)
        return LaurentZ(out)


def _exponents(e):
    """The exponents of a key as a tuple: (e,) for an int, e for a tuple."""
    return e if isinstance(e, tuple) else (e,)


def format_sum(terms, names):
    """Render (exponents, coeff, basis label or None) terms as a signed sum,
    e.g. '-q^2*h + 3' or 'q^-1*[] - [1,0]'."""
    if not terms:
        return "0"
    out = ""
    for exps, coeff, label in terms:
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, _exponents(exps)) if e]
        if label is not None:
            factors.append(label)
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        term = "*".join(factors)
        if not out:
            out = "-" + term if coeff < 0 else term
        else:
            out += (" - " if coeff < 0 else " + ") + term
    return out
