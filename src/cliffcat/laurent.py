"""Exact Laurent polynomial arithmetic over the integers.

Two flavours: one variable q (LaurentZ) and two variables q, h (LaurentZH),
both stored as sparse maps from exponents to nonzero integer coefficients.
Python integers are arbitrary precision, so no overflow handling is needed.
"""

from __future__ import annotations


class LaurentZ:
    """Laurent polynomial in q with integer coefficients, dict {exp: coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def unit(cls):
        return cls({0: 1})

    @classmethod
    def q_power(cls, e, coeff=1):
        return cls({e: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentZ({0: other})
        return isinstance(other, LaurentZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentZ(out)

    def __neg__(self):
        return LaurentZ({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentZ({0: other})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentZ(out)

    __rmul__ = __mul__

    def items(self):
        return sorted(self.coeffs.items())

    def to_json(self):
        return [[e, c] for e, c in self.items()]

    def __repr__(self):
        return f"LaurentZ({dict(self.items())})"

    def __str__(self):
        return format_laurent(self.items(), ("q",))


class LaurentZH:
    """Laurent polynomial in q and h, dict {(qexp, hexp): coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def unit(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, qexp, hexp, coeff=1):
        return cls({(qexp, hexp): coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentZH({(0, 0): other})
        return isinstance(other, LaurentZH) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentZH(out)

    def __neg__(self):
        return LaurentZH({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentZH({(0, 0): other})
        out = {}
        for (q1, h1), c1 in self.coeffs.items():
            for (q2, h2), c2 in other.coeffs.items():
                e = (q1 + q2, h1 + h2)
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentZH(out)

    __rmul__ = __mul__

    def items(self):
        return sorted(self.coeffs.items())

    def specialize_h(self):
        """Substitute h := -1 (a ring map; h^-1 goes to -1 as well)."""
        out = {}
        for (qe, he), c in self.coeffs.items():
            out[qe] = out.get(qe, 0) + (-c if he % 2 else c)
        return LaurentZ(out)

    def to_json(self):
        return [[qe, he, c] for (qe, he), c in self.items()]

    def __repr__(self):
        return f"LaurentZH({dict(self.items())})"

    def __str__(self):
        return format_laurent(
            [((qe, he), c) for (qe, he), c in self.items()], ("q", "h")
        )


def format_laurent(items, names):
    """Render sorted (exponents, coeff) pairs as e.g. '-q^2*h + 3'."""
    return format_sum([(exps, coeff, None) for exps, coeff in items], names)


def format_sum(terms, names):
    """Render (exponents, coeff, basis label or None) terms as a signed sum,
    e.g. '-q^2*h + 3' or 'q^-1*[] - [1,0]'."""
    if not terms:
        return "0"
    out = ""
    for exps, coeff, label in terms:
        if not isinstance(exps, tuple):
            exps = (exps,)
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
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
