"""The DG thickening of the tensor-square algebra, as a path quotient.

All relations identify one length-2 path with another, so the quotient of
the boxed-quiver path algebra has the equivalence classes of paths as an F2
basis.  Classes are computed by a union-find closure over adjacent-arrow
swaps; the swap of a left-side insertion at s with a right-side insertion at
s+1 is excluded (that anticommutator is the differential of the diagonal
generator, not zero).  The normal form of a class is its lexicographically
least path under the arrow ordering X < Y < D, then by s.

A monomial is (source_pair, arrows) with arrows a tuple of (kind, s).
"""

from __future__ import annotations

from functools import lru_cache

from . import gf2
from . import ralgebra as ra
from . import vertices as vx
from .quiver import DIAG, XSIDE, YSIDE, arrow_cohdeg, arrow_qdeg, box_arrow_targets, pair_mask

BOX_BOUND = 5

_KIND_RANK = {XSIDE: 0, YSIDE: 1, DIAG: 2}


def path_key(arrows):
    return tuple((_KIND_RANK[k], s) for k, s in arrows)


def apply_arrow(xy, kind, s):
    """Target of the arrow, or None if not applicable at xy."""
    x, y = xy
    if kind == XSIDE:
        if x & pair_mask(s):
            return None
        return (x | pair_mask(s), y)
    if kind == YSIDE:
        if y & pair_mask(s):
            return None
        return (x, y | pair_mask(s))
    if x & pair_mask(s) or y & pair_mask(s + 1):
        return None
    return (x | pair_mask(s), y | pair_mask(s + 1))


def path_target(source, arrows):
    v = source
    for kind, s in arrows:
        v = apply_arrow(v, kind, s)
        if v is None:
            return None
    return v


def path_valid(source, arrows):
    return path_target(source, arrows) is not None


def _swappable(a1, a2):
    """May adjacent arrows a1, a2 be exchanged (validity checked separately)?

    The only excluded exchange is an X insertion at s against a Y insertion
    at s+1, in either order.
    """
    k1, s1 = a1
    k2, s2 = a2
    if k1 == XSIDE and k2 == YSIDE and s2 == s1 + 1:
        return False
    if k1 == YSIDE and k2 == XSIDE and s1 == s2 + 1:
        return False
    return True


class BoxAlgebra:
    """Path-quotient realization for one value of n.

    Classes are built lazily per source vertex: a full build at n=5 takes a
    minute, while typical complexes touch only a few sources.
    """

    def __init__(self, n):
        if n > BOX_BOUND:
            raise ValueError(f"box algebra bound {BOX_BOUND} exceeded for n={n}")
        self.n = n
        self._normal = {}  # (source, arrows) -> canonical arrows
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
        # enumerate all paths out of source
        paths = []
        stack = [((), source)]
        while stack:
            arrows, at = stack.pop()
            paths.append(arrows)
            for kind, s, tgt in box_arrow_targets(self.n, at):
                stack.append((arrows + ((kind, s),), tgt))
        index = {p: i for i, p in enumerate(paths)}
        parent = list(range(len(paths)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for p, i in index.items():
            for k in range(len(p) - 1):
                if not _swappable(p[k], p[k + 1]):
                    continue
                swapped = p[:k] + (p[k + 1], p[k]) + p[k + 2 :]
                j = index.get(swapped)
                if j is not None and path_valid(source, swapped):
                    parent[find(i)] = find(j)
        groups = {}
        for p, i in index.items():
            groups.setdefault(find(i), []).append(p)
        for members in groups.values():
            canon = min(members, key=path_key)
            tgt = path_target(source, canon)
            for p in members:
                self._normal[(source, p)] = canon
            self._classes.setdefault((source, tgt), []).append(canon)
        for key in self._classes:
            self._classes[key].sort(key=path_key)

    # -- basis access -------------------------------------------------------

    def normal_form(self, source, arrows):
        """Canonical representative of a path; None for an invalid path."""
        self._ensure(source)
        canon = self._normal.get((source, arrows))
        if canon is None and path_valid(source, arrows):
            raise KeyError((source, arrows))
        return canon

    def hom_basis(self, source, target, cohdeg=None):
        self._ensure(source)
        out = self._classes.get((source, target), [])
        if cohdeg is None:
            return out
        return [p for p in out if self.cohdeg(p) == cohdeg]

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
        out = set()
        for m1 in a:
            for m2 in b:
                m = self.mult_mono(m1, m2)
                if m is not None:
                    out.symmetric_difference_update([m])
        return frozenset(out)

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
        out = set()
        for m in a:
            out.symmetric_difference_update(self.diff_mono(m))
        return frozenset(out)

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
        out = set()
        for m in a:
            hm = self.h_map_mono(m)
            if hm is not None:
                out.symmetric_difference_update([hm])
        return frozenset(out)

    def section_rr(self, mono_rr):
        """Canonical preimage of a tensor-square monomial: X moves then Y moves."""
        (x1, x2), (y1, y2) = mono_rr
        arrows = tuple((XSIDE, s) for s in ra.forced_pairs(x1, x2))
        arrows += tuple((YSIDE, s) for s in ra.forced_pairs(y1, y2))
        source = (x1, y1)
        return (source, self.normal_form(source, arrows))


@lru_cache(maxsize=None)
def box_algebra(n):
    return BoxAlgebra(n)


def fmt_mono_box(mono):
    source, arrows = mono
    if not arrows:
        return f"e{vx.fmt_pair(source)}"
    steps = ".".join(f"{kind}{s}" for kind, s in arrows)
    return f"r({vx.fmt_pair(source)};{steps})"
