"""Twisted complexes of shifted projectives over the three algebras.

A complex is a list of summands P(v){a}[b] (b is the cohomological position)
plus a sparse differential matrix whose (j, i) entry is an F2 element of
e(v_i) * A * e(v_j); the map P(v_i) -> P(v_j) is right multiplication.  The
validity condition is d(delta) + delta^2 = 0 together with the degree
contract cohdeg(entry) + b_j - b_i = 1 and qdeg(entry) = a_j - a_i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import gf2
from . import ralgebra as ra
from . import vertices as vx
from .boxalgebra import box_algebra, fmt_mono_box, path_target
from .laurent import LaurentZ
from .quiver import DIAG, XSIDE, YSIDE


class LiftError(Exception):
    """A rho step got an invalid input, or its lift no valid correction."""


# ---------------------------------------------------------------------------
# uniform algebra operations


# algebra(tag, n) makes the one adapter of each algebra and n, shared by
# every complex over it, and each adapter owns its memos: degrees (entry ->
# (qdeg, cohdeg, source, target)), the products of RR and Box and the Box
# differential; a word lift meets few distinct entries, each many times.
# Entries are frozensets, which cache their hashes, and every result is
# immutable.  An adapter lives for the whole process, so its products and
# differential look up their kernel when called, never when it is made: a
# tracer that later rebinds ra.mult_r, ra.mult_rr or BoxAlgebra.mult or
# .diff still sees the calls.


class RAlgebraOps:
    tag = "R"

    def __init__(self, n):
        self.n = n
        self.degrees = _DegreeMemo(self)

    def mult(self, a, b):
        return ra.mult_r(self.n, a, b)

    def mono_degrees(self, m):
        """(qdeg, cohdeg, source, target) of a monomial."""
        return ra.mono_qdeg_r(self.n, m), 0, m[0], m[1]

    def mono_json(self, m):
        return [list(vx.seq(m[0])), list(vx.seq(m[1]))]

    def mono_from_json(self, data):
        x, w = (vx.from_json(v, self.n) for v in _pair(data, "R monomial"))
        ra.mono_qdeg_r(self.n, (x, w))  # raises ValueError if there is none
        return (x, w)

    def vertex_json(self, v):
        return list(vx.seq(v))

    def vertex_from_json(self, data):
        return vx.from_json(data, self.n)

    def fmt_mono(self, m):
        return ra.fmt_mono_r(m)


class RRAlgebraOps:
    tag = "RR"

    def __init__(self, n):
        self.n = n
        self.degrees = _DegreeMemo(self)
        self.mult = lru_cache(maxsize=None)(lambda a, b: ra.mult_rr(n, a, b))

    def mono_degrees(self, m):
        left, right = m
        qdeg = ra.mono_qdeg_r(self.n, left) + ra.mono_qdeg_r(self.n, right)
        return qdeg, 0, (left[0], right[0]), (left[1], right[1])

    def mono_json(self, m):
        return [[list(vx.seq(e)) for e in m[0]], [list(vx.seq(e)) for e in m[1]]]

    def mono_from_json(self, data):
        side = algebra("R", self.n)
        return tuple(side.mono_from_json(m) for m in _pair(data, "RR monomial"))

    def vertex_json(self, v):
        return [list(vx.seq(v[0])), list(vx.seq(v[1]))]

    def vertex_from_json(self, data):
        return _vertex_pair_from_json(data, self.n)

    def fmt_mono(self, m):
        return f"{ra.fmt_mono_r(m[0])}(x){ra.fmt_mono_r(m[1])}"


class BoxAlgebraOps:
    tag = "Box"

    def __init__(self, n):
        self.n = n
        self.algebra = box_algebra(n)
        self.degrees = _DegreeMemo(self)
        self.mult = lru_cache(maxsize=None)(lambda a, b: box_algebra(n).mult(a, b))
        self.diff = lru_cache(maxsize=None)(lambda a: box_algebra(n).diff(a))

    def mono_degrees(self, m):
        arrows = m[1]
        qdeg, cohdeg = self.algebra.qdeg(arrows), self.algebra.cohdeg(arrows)
        return qdeg, cohdeg, m[0], path_target(m[0], arrows)

    def mono_json(self, m):
        (x, y), arrows = m
        return {
            "source": [list(vx.seq(x)), list(vx.seq(y))],
            "arrows": [[kind, s] for kind, s in arrows],
        }

    def mono_from_json(self, data):
        source = _vertex_pair_from_json(_field(data, "source", "Box monomial"), self.n)
        listed = _list(_field(data, "arrows", "Box monomial"), "arrows")
        arrows = tuple(tuple(_pair(a, "Box arrow")) for a in listed)
        for kind, s in arrows:
            in_range = type(s) is int and 0 <= s < self.n - (kind == DIAG)
            if kind not in (XSIDE, YSIDE, DIAG) or not in_range:
                raise ValueError(f"no Box arrow {kind}{s} at n={self.n}")
        canon = self.algebra.normal_form(source, arrows)
        if canon is None:
            raise ValueError(f"{self.fmt_mono((source, arrows))} is not a Box path")
        return (source, canon)

    vertex_json = RRAlgebraOps.vertex_json
    vertex_from_json = RRAlgebraOps.vertex_from_json

    def fmt_mono(self, m):
        return fmt_mono_box(m)


class _DegreeMemo(dict):
    """Entry -> (qdeg, cohdeg, source, target) over one algebra.  A miss
    computes and stores the degrees; a mixed entry raises ValueError and is
    not stored."""

    def __init__(self, ops):
        super().__init__()
        self.ops = ops

    def __missing__(self, e):
        degs = {self.ops.mono_degrees(m) for m in e}
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous entry: {sorted(map(self.ops.fmt_mono, e))}")
        self[e] = out = next(iter(degs))
        return out


_OPS = {"R": RAlgebraOps, "RR": RRAlgebraOps, "Box": BoxAlgebraOps}


@lru_cache(maxsize=None)
def algebra(tag, n):
    """The one adapter of the algebra tag ("R", "RR" or "Box") at n."""
    return _OPS[tag](n)


# ---------------------------------------------------------------------------
# complexes


class Summand(NamedTuple):
    """P(vertex){qshift}[cohshift].  A word lift builds millions, and a
    NamedTuple is cheaper to build than a frozen dataclass; the rho steps
    build theirs with tuple.__new__(Summand, fields), which skips the
    constructor's Python frame."""

    vertex: object
    qshift: int
    cohshift: int


class ProjComplex(NamedTuple):
    """Summands and a sparse differential over the algebra of ops.

    summands is a tuple of Summand, and delta maps (j, i) to a nonempty
    frozenset.  Both are taken as given, not copied or normalized: every
    builder makes them in that form, and complex_from_json normalizes data
    from outside."""

    ops: object
    summands: tuple
    delta: dict


def projective(ops, v, qshift=0, cohshift=0):
    return ProjComplex(ops, (Summand(v, qshift, cohshift),), {})


# ---------------------------------------------------------------------------
# the sparse-matrix kernel: differentials and chain-map entries are
# {(row, col): F2 element}, the (j, i) entry mapping summand i to summand j.
# No other code does arithmetic on this format.


def mat_add(*mats):
    """Entrywise F2 sum."""
    out = {}
    for mat in mats:
        for key, e in mat.items():
            cur = out.get(key)
            out[key] = e if cur is None else cur ^ e
    return {key: e for key, e in out.items() if e}


def mat_then(mult, a, b):
    """The product "a then b": entry (k, i) sums mult(a[j, i], b[k, j]) over j."""
    by_col = {}
    for (k, j), e in b.items():
        by_col.setdefault(j, []).append((k, e))
    out = {}
    for (j, i), e1 in a.items():
        for k, e2 in by_col.get(j, ()):
            prod = mult(e1, e2)
            if prod:
                cur = out.get((k, i))
                out[(k, i)] = prod if cur is None else cur ^ prod
    return {key: e for key, e in out.items() if e}


def map_violation(source, target, entries, degree):
    """The first entry out of range, inhomogeneous, off its endpoints or off
    the (q, coh) degree, as a witness string; None if every entry keeps it.
    An entry (j, i) has degree (qdeg + a_i - a_j, cohdeg + b_j - b_i) for
    source summand i = P(v_i){a_i}[b_i] and target summand j."""
    degrees = source.ops.degrees
    qdeg, cohdeg = degree
    sources, targets = source.summands, target.summands
    ni, nj = len(sources), len(targets)
    for (j, i), e in entries.items():
        if not (0 <= i < ni and 0 <= j < nj):
            return f"entry ({j},{i}) out of range"
        try:
            qd, cd, src, tgt = degrees[e]
        except ValueError as exc:
            return str(exc)
        vi, ai, bi = sources[i]
        vj, aj, bj = targets[j]
        if src != vi or tgt != vj:
            return f"entry ({j},{i}) endpoints do not match summands"
        if cd + bj - bi != cohdeg:
            return f"entry ({j},{i}) violates the cohomological contract"
        if qd + ai - aj != qdeg:
            return f"entry ({j},{i}) violates the q contract"
    return None


def delta_square(c):
    """Entries of d(delta) + delta*delta, as {(j, i): elem}; d = 0 over R and RR."""
    square = mat_then(c.ops.mult, c.delta, c.delta)
    if c.ops.tag == "Box":
        diff = c.ops.diff
        square = mat_add({key: diff(e) for key, e in c.delta.items()}, square)
    return square


def parity_square(c):
    """delta*delta of a complex over R that keeps the degree contract.

    R Hom-spaces are at most one-dimensional, so each entry of such a
    complex is the basis monomial between its endpoints, composable products
    never vanish and d = 0.  Entry (k, i) of the square is therefore the
    monomial (v_i, v_k) when an odd number of j have (j, i) and (k, j) in
    the support, and zero otherwise.  The parities are XORs of int row
    masks.  delta_square is its test oracle."""
    rows = [0] * len(c.summands)  # j -> mask of the k with (k, j) in the support
    for k, j in c.delta:
        rows[j] |= 1 << k
    masks = [0] * len(c.summands)  # i -> mask of the k met an odd number of times
    for j, i in c.delta:
        masks[i] ^= rows[j]
    summands = c.summands
    return {
        (k, i): frozenset([(summands[i].vertex, summands[k].vertex)])
        for i, mask in enumerate(masks) if mask for k in vx.seq(mask)
    }


def contract_violation(c):
    """The first delta entry that breaks the degree contract, as a witness."""
    return map_violation(c, c, c.delta, (0, 1))


def verify_mc(c):
    """Validity of a twisted complex; returns (ok, witness-or-None).

    The contract is checked first; over R its success is what lets the
    square be counted by parity_square."""
    witness = contract_violation(c)
    if witness is not None:
        return False, witness
    sq = parity_square(c) if c.ops.tag == "R" else delta_square(c)
    if sq:
        (j, i), e = sorted(sq.items())[0]
        return False, (
            f"d(delta)+delta^2 nonzero at ({j},{i}): "
            + " + ".join(sorted(c.ops.fmt_mono(m) for m in e))
        )
    return True, None


def k0_class(c):
    """Sum over summands of (-1)^cohshift q^qshift [vertex]."""
    out = {}
    for s in c.summands:
        coeff = LaurentZ.q_power(s.qshift, -1 if s.cohshift % 2 else 1)
        cur = out.get(s.vertex, LaurentZ())
        out[s.vertex] = cur + coeff
    return {v: coeff for v, coeff in out.items() if coeff}


# ---------------------------------------------------------------------------
# tensor over the ground field and the diagonal lift


def tensor_f2(m, nc):
    """Tensor two complexes over R into one over the tensor square.

    P(v_i) (x) P(w_j) sits at i * w + j, w = len(nc.summands), shifts
    added; the differential is tensor_entries with the side entries
    e (x) 1_v and 1_v (x) e; check_factors checks both inputs.  Kernel of
    rho's per-pair lift, and on whole inputs the whole-square oracle of
    rho."""
    check_factors(m, nc)
    new = tuple.__new__
    summands = tuple([
        new(Summand, ((v1, v2), a1 + a2, b1 + b2))
        for v1, a1, b1 in m.summands
        for v2, a2, b2 in nc.summands
    ])
    delta = {(j, i): e for j, i, e in tensor_entries(m, nc, _side_entry)}
    return ProjComplex(algebra("RR", m.ops.n), summands, delta)


def check_factors(m, nc):
    """Check the factors of a tensor square: AssertionError unless both are
    over R at one n, LiftError with verify_mc's witness unless both are
    valid.  Over F2 the tensor product is valid exactly when both factors
    are, since its entries keep their factors' degrees and
    (d(x)1 + 1(x)d)^2 = d^2(x)1 + 1(x)d^2."""
    if not m.ops.tag == nc.ops.tag == "R" or m.ops.n != nc.ops.n:
        raise AssertionError(f"a tensor square needs two complexes over R at one n, got "
                             f"{m.ops.tag} at n={m.ops.n} and {nc.ops.tag} at n={nc.ops.n}")
    for c in (m, nc):
        ok, witness = verify_mc(c)
        if not ok:
            raise LiftError(witness)


def tensor_entries(m, nc, side):
    """The differential of the tensor product of two checked complexes over
    R, as (row, col, side(e, v, left)) triples for the entries e (x) 1_v
    (left) and 1_v (x) e, with tensor_f2's summand order.

    A valid input has no diagonal entry (i, i), so the blocks of d(x)1 and
    1(x)d are disjoint and each key occurs once."""
    w = len(nc.summands)
    out = [
        (j * w + j2, i * w + j2, side(e, sj.vertex, True))
        for (j, i), e in m.delta.items()
        for j2, sj in enumerate(nc.summands)
    ]
    out += [
        (i2 * w + j, i2 * w + i, side(e, si.vertex, False))
        for (j, i), e in nc.delta.items()
        for i2, si in enumerate(m.summands)
    ]
    return out


@lru_cache(maxsize=None)
def _side_entry(e, v, left):
    """The RR entry e (x) 1_v if left, else 1_v (x) e."""
    ident = (v, v)
    if left:
        return frozenset((mo, ident) for mo in e)
    return frozenset((ident, mo) for mo in e)


def lift_to_box(c):
    """Lift a tensor-square complex, as tensor_f2 makes it, to the DG thickening.

    tensor_f2 has checked both factors, so the input keeps the degree
    contract and squares to zero over RR.  Entries are lifted through the
    side-generator section, which keeps their endpoints and q-degrees at
    cohomological degree 0, so the lift keeps the contract.  The input is
    squared over RR by delta_square, and its lift's residual is computed;
    if that is nonzero, each residual entry gets one diagonal-generator
    correction at its own endpoints and one lower cohomological degree (Box
    q-degrees are forced by endpoints), which keeps the contract, so only
    the corrected square is checked.  Raises LiftError if d(delta) +
    delta^2 != 0 over RR, if some residual entry is not a boundary, or if
    the corrected square is nonzero.  catun._cross_correction lifts each
    pair of moving entries of a rho step here; on a whole tensor square
    this is rho's test oracle and the witness of a refused pair.
    """
    if c.ops.tag != "RR":
        raise AssertionError(f"lift_to_box needs a tensor-square complex, got {c.ops.tag}")
    n = c.ops.n
    ops = algebra("Box", n)
    delta = {key: _lift_entry(n, e) for key, e in c.delta.items()}
    out = ProjComplex(ops, c.summands, delta)
    square = delta_square(c)
    if square:
        raise LiftError(f"d(delta)+delta^2 nonzero over RR at {min(square)}")
    residual = delta_square(out)
    if not residual:
        return out
    corrections = {key: _correction(ops, key, e) for key, e in sorted(residual.items())}
    out = ProjComplex(ops, c.summands, mat_add(delta, corrections))
    square = delta_square(out)
    if square:
        raise LiftError(f"d(delta)+delta^2 nonzero at {min(square)} over Box")
    return out


def _correction(ops, key, e):
    """A Box element of one lower cohomological degree whose differential is
    the residual entry e at key; raises LiftError if there is none."""
    j, i = key
    out = _boundary_preimage(ops.n, e)
    if out is None:
        raise LiftError(f"unliftable complex: residual at ({j},{i}) is not a boundary")
    return out


@lru_cache(maxsize=None)
def _boundary_preimage(n, e):
    """_correction's solve, memoized: a repeated lift meets the same residual
    entries.  None if e is not a boundary.  e is homogeneous: the input kept
    the contract, so every residual entry between summands i and k has
    degree (a_k - a_i, 2 - b_k + b_i) from v_i to v_k."""
    alg = box_algebra(n)
    _, cd, src, tgt = algebra("Box", n).degrees[e]
    basis = alg.hom_basis(src, tgt, cohdeg=cd - 1)
    index = {(src, p): k for k, p in enumerate(alg.hom_basis(src, tgt, cohdeg=cd))}

    def vec(monos):  # an F2 set, so no monomial repeats, as a bit vector
        return sum(1 << index[mono] for mono in monos)

    combo = gf2.solve([vec(alg.diff_mono((src, p))) for p in basis], vec(e))
    if combo is None:
        return None
    return frozenset((src, basis[b]) for b in range(len(basis)) if combo >> b & 1)


@lru_cache(maxsize=None)
def _lift_entry(n, e):
    """An RR entry lifted monomial by monomial through the section."""
    alg = box_algebra(n)
    return frozenset(alg.section_rr(mo) for mo in e)


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(c):
    return {
        "algebra": c.ops.tag,
        "n": c.ops.n,
        "summands": [
            {"vertex": c.ops.vertex_json(s.vertex), "qshift": s.qshift, "cohshift": s.cohshift}
            for s in c.summands
        ],
        "delta": [
            {"row": j, "col": i, "monomials": [c.ops.mono_json(m) for m in sorted(e, key=repr)]}
            for (j, i), e in sorted(c.delta.items())
        ],
    }


# validating JSON decoders: every malformed field raises ValueError


def _field(data, key, what):
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    if key not in data:
        raise ValueError(f"{what} has no field {key!r}")
    return data[key]


def _list(data, what):
    if not isinstance(data, list):
        raise ValueError(f"{what} is not a list")
    return data


def _int(data, key, what):
    value = _field(data, key, what)
    if type(value) is not int:
        raise ValueError(f"{what} field {key!r} is not an integer: {value!r}")
    return value


def _pair(data, what):
    if not isinstance(data, list) or len(data) != 2:
        raise ValueError(f"{what} {data!r} is not a pair")
    return data


def _vertex_pair_from_json(data, n):
    x, y = _pair(data, "vertex pair")
    return (vx.from_json(x, n), vx.from_json(y, n))


def complex_from_json(data):
    """Decode complex_to_json output; raises ValueError on any malformed field."""
    tag = _field(data, "algebra", "complex")
    if not isinstance(tag, str) or tag not in _OPS:
        raise ValueError(f"unknown algebra {tag!r}")
    n = _int(data, "n", "complex")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n > vx.MAX_N:
        raise ValueError(f"n must be at most {vx.MAX_N}, got {n}")
    ops = algebra(tag, n)
    summands = tuple(
        Summand(
            ops.vertex_from_json(_field(s, "vertex", "summand")),
            _int(s, "qshift", "summand"),
            _int(s, "cohshift", "summand"),
        )
        for s in _list(_field(data, "summands", "complex"), "summands")
    )
    delta = {}
    for item in _list(_field(data, "delta", "complex"), "delta"):
        key = (_int(item, "row", "delta entry"), _int(item, "col", "delta entry"))
        if not all(0 <= k < len(summands) for k in key):
            raise ValueError(f"delta entry {key} out of range for {len(summands)} summands")
        if key in delta:
            raise ValueError(f"delta entry {key} repeated")
        listed = _list(_field(item, "monomials", "delta entry"), "monomials")
        monomials = [ops.mono_from_json(m) for m in listed]
        delta[key] = frozenset(monomials)
        if len(delta[key]) < len(monomials):
            raise ValueError(f"delta entry {key} lists one monomial twice")
    # an empty entry is zero: dropped only now, so a key after it still repeats
    return ProjComplex(ops, summands, {key: e for key, e in delta.items() if e})
