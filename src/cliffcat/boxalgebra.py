"""The DG thickening of the tensor-square algebra, as a path quotient.

All relations identify one length-2 path with another, so the quotient of
the boxed-quiver path algebra has the equivalence classes of paths as an F2
basis.  The relations let adjacent arrows commute, except a left-side
insertion at s against a right-side insertion at s+1 (that anticommutator is
the differential of the diagonal generator, not zero).

Along a valid path bits are only ever set, so the footprints of its arrows
are pairwise disjoint and every reordering is again a valid path.  A class
out of a source is therefore a set of arrows with disjoint footprints, plus
an order of each X_s/Y_{s+1} pair in it: an element of a trace monoid whose
only dependencies are those pairs.  Its normal form is the lexicographically
least path under the arrow ordering X < Y < D, then by s, which is the lex
normal form of the trace (Cartier and Foata 1969; Anisimov and Knuth 1979).

A monomial is (source_pair, arrows) with arrows a tuple of (kind, s).
"""

from __future__ import annotations

from functools import lru_cache

from . import gf2
from . import ralgebra as ra
from . import vertices as vx
from .quiver import DIAG, XSIDE, YSIDE, apply_arrow, arrow_cohdeg, arrow_qdeg, box_arrow_targets

_KIND_RANK = {XSIDE: 0, YSIDE: 1, DIAG: 2}


def path_key(arrows):
    return tuple((_KIND_RANK[k], s) for k, s in arrows)


def path_target(source, arrows):
    v = source
    for kind, s in arrows:
        v = apply_arrow(v, kind, s)
        if v is None:
            return None
    return v


@lru_cache(maxsize=None)
def canonical(arrows):
    """Least path in the class of a valid path.

    The arrows sort by X < Y < D, then by s, except that an X_s which comes
    after Y_{s+1} stays right behind it.
    """
    keyed = []
    seen_y = set()
    for kind, s in arrows:
        if kind == XSIDE and s + 1 in seen_y:
            keyed.append(((_KIND_RANK[YSIDE], s + 1, 1), (kind, s)))
        else:
            keyed.append(((_KIND_RANK[kind], s, 0), (kind, s)))
        if kind == YSIDE:
            seen_y.add(s)
    return tuple(arrow for _, arrow in sorted(keyed))


class BoxAlgebra:
    """Path-quotient realization for one value of n.

    Classes are built lazily per source vertex, since typical complexes touch
    only a few sources.
    """

    def __init__(self, n):
        self.n = n
        self._classes = {}  # (source, target) -> [canonical arrows]
        self._built = set()

    def _ensure(self, source):
        if source not in self._built:
            self._build_from(source)
            self._built.add(source)

    def build_all(self):
        for x in vx.all_vertices(self.n):
            for y in vx.all_vertices(self.n):
                self._ensure((x, y))
        return self

    def _build_from(self, source):
        # every set of arrows out of source with disjoint footprints, listed
        # in path_key order, paired with its target
        arrows = [(kind, s) for kind, s, _ in box_arrow_targets(self.n, source)]
        by_target = {}
        stack = [(0, source, ())]
        while stack:
            i, at, chosen = stack.pop()
            if i == len(arrows):
                by_target.setdefault(at, []).extend(_orders(chosen))
                continue
            stack.append((i + 1, at, chosen))
            nxt = apply_arrow(at, *arrows[i])
            if nxt is not None:
                stack.append((i + 1, nxt, chosen + (arrows[i],)))
        for target, reps in by_target.items():
            self._classes[(source, target)] = sorted(reps, key=path_key)

    # -- basis access -------------------------------------------------------

    def normal_form(self, source, arrows):
        """Canonical representative of a path; None for an invalid path."""
        if path_target(source, arrows) is None:
            return None
        return canonical(arrows)

    def hom_basis(self, source, target, cohdeg):
        self._ensure(source)
        return [p for p in self._classes.get((source, target), []) if self.cohdeg(p) == cohdeg]

    def all_monomials(self):
        self.build_all()
        for (source, _), reps in sorted(self._classes.items()):
            for arrows in reps:
                yield (source, arrows)

    # -- gradings -----------------------------------------------------------

    @staticmethod
    def cohdeg(arrows):
        return sum(arrow_cohdeg(kind) for kind, _ in arrows)

    def qdeg(self, arrows):
        return sum(arrow_qdeg(self.n, kind, s) for kind, s in arrows)

    # -- algebra operations -------------------------------------------------

    def mult_mono(self, m1, m2):
        """Product of two basis classes, or None (mismatched endpoints)."""
        s1, a1 = m1
        s2, a2 = m2
        if path_target(s1, a1) != s2:
            return None
        return (s1, self.normal_form(s1, a1 + a2))

    def mult(self, a, b):
        return ra.f2_sum([m for m1 in a for m2 in b if (m := self.mult_mono(m1, m2)) is not None])

    def diff_mono(self, mono):
        """Leibniz differential of a basis class, as an F2 set of classes.

        Each diagonal arrow at s is replaced by the two mixed composites
        X(s)Y(s+1) and Y(s+1)X(s).
        """
        source, arrows = mono
        out = set()
        for i, (kind, s) in enumerate(arrows):
            if kind != DIAG:
                continue
            for repl in (
                ((XSIDE, s), (YSIDE, s + 1)),
                ((YSIDE, s + 1), (XSIDE, s)),
            ):
                new = arrows[:i] + repl + arrows[i + 1 :]
                out.symmetric_difference_update([(source, self.normal_form(source, new))])
        return frozenset(out)

    def diff(self, a):
        return ra.f2_sum([dm for m in a for dm in self.diff_mono(m)])

    # -- cohomology and the comparison map ----------------------------------

    def cohomology_dims(self, source, target):
        """dim H^c of the Hom-space complex, as {cohdeg: dim}."""
        self._ensure(source)
        reps = self._classes.get((source, target), [])
        if not reps:
            return {}
        by_deg = {}
        for p in reps:
            by_deg.setdefault(self.cohdeg(p), []).append(p)
        degs = sorted(by_deg)
        ranks = {}
        for c in degs:
            basis_next = {p: i for i, p in enumerate(by_deg.get(c + 1, []))}
            rows = []
            for p in by_deg[c]:
                vec = 0
                for (_, dp) in self.diff_mono((source, p)):
                    vec ^= 1 << basis_next[dp]
                rows.append(vec)
            ranks[c] = gf2.rank(rows)
        dims = {}
        for c in degs:
            d = len(by_deg[c]) - ranks.get(c, 0) - ranks.get(c - 1, 0)
            if d:
                dims[c] = d
        return dims

    def h_map_mono(self, mono):
        """Collapse onto the tensor square: diagonal-bearing classes go to 0."""
        source, arrows = mono
        if any(kind == DIAG for kind, _ in arrows):
            return None
        (x, y) = source
        (x2, y2) = path_target(source, arrows)
        left = ra.basis_mon_r(self.n, x, x2)
        right = ra.basis_mon_r(self.n, y, y2)
        if left is None or right is None:
            raise AssertionError(f"side path has no R monomial: {fmt_mono_box(mono)}")
        return (left, right)

    def h_map(self, a):
        return ra.f2_sum([hm for m in a if (hm := self.h_map_mono(m)) is not None])

    def section_rr(self, mono_rr):
        """Canonical preimage of a tensor-square monomial: X moves then Y moves."""
        (x1, x2), (y1, y2) = mono_rr
        arrows = tuple((XSIDE, s) for s in ra.forced_pairs(x1, x2))
        arrows += tuple((YSIDE, s) for s in ra.forced_pairs(y1, y2))
        source = (x1, y1)
        return (source, self.normal_form(source, arrows))


def _orders(chosen):
    """The canonical paths of every order of an arrow set in path_key order:
    each X_s/Y_{s+1} pair in it goes either way round."""
    pairs = [(XSIDE, s) for kind, s in chosen if kind == XSIDE and (YSIDE, s + 1) in chosen]
    out = []
    for late in range(1 << len(pairs)):
        moved = tuple(a for i, a in enumerate(pairs) if late >> i & 1)
        out.append(canonical(tuple(a for a in chosen if a not in moved) + moved))
    return out


@lru_cache(maxsize=None)
def box_algebra(n):
    return BoxAlgebra(n)


def fmt_mono_box(mono):
    source, arrows = mono
    if not arrows:
        return f"e{vx.fmt_pair(source)}"
    steps = ".".join(f"{kind}{s}" for kind, s in arrows)
    return f"r({vx.fmt_pair(source)};{steps})"
