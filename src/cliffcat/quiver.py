"""The pair-insertion quiver on subsets of {0..n} and its boxed product.

Arrows insert an adjacent pair {s, s+1} into a vertex; the boxed quiver on
pairs of vertices has side arrows acting on one factor and diagonal arrows
inserting {s, s+1} on the left and {s+1, s+2} on the right simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import vertices as vx

XSIDE = "X"
YSIDE = "Y"
DIAG = "D"


def pair_mask(s):
    return 0b11 << s


def arrow_targets(n, x):
    """All (s, target) with target = x + {s, s+1}, for valid s."""
    out = []
    for s in range(n):
        pm = pair_mask(s)
        if x & pm == 0:
            out.append((s, x | pm))
    return out


@dataclass
class Quiver:
    n: int
    vertices: list = field(repr=False)
    # vertex -> [(s, target)], or on the boxed quiver (x, y) -> [(kind, s, target)]
    out_arrows: dict = field(repr=False)


def build_gamma(n):
    if n <= 0:
        raise ValueError("n must be positive")
    verts = list(vx.all_vertices(n))
    return Quiver(n, verts, {v: arrow_targets(n, v) for v in verts})


def classes(items, links):
    """The classes of items under the equivalence that links (pairs of
    items) generate, each in the order of items, by union-find."""
    parent = {v: v for v in items}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v, w in links:
        parent[find(v)] = find(w)
    groups = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def components(q):
    """Partition vertices by undirected connectivity; sorted deterministic."""
    links = [(v, w) for v, arrs in q.out_arrows.items() for _, w in arrs]
    return sorted(sorted(g) for g in classes(q.vertices, links))


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


def box_arrow_targets(n, xy):
    """All (kind, s, target) arrows out of the boxed vertex (x, y)."""
    candidates = [(XSIDE, s) for s in range(n)] + [(YSIDE, s) for s in range(n)]
    candidates += [(DIAG, s) for s in range(n - 1)]
    return [(k, s, w) for k, s in candidates if (w := apply_arrow(xy, k, s)) is not None]


def build_gamma_box(n):
    if n <= 0:
        raise ValueError("n must be positive")
    verts = [(x, y) for x in vx.all_vertices(n) for y in vx.all_vertices(n)]
    return Quiver(n, verts, {v: box_arrow_targets(n, v) for v in verts})


def arrow_qdeg(n, kind, s):
    if kind == DIAG:
        return (n - 1 - 2 * s) + (n - 1 - 2 * (s + 1))
    return n - 1 - 2 * s


def arrow_cohdeg(kind):
    return -1 if kind == DIAG else 0


def quiver_json(q):
    return {
        "n": q.n,
        "vertices": [list(vx.seq(v)) for v in q.vertices],
        "euler": {vx.fmt(v): vx.euler(v) for v in q.vertices},
        "arrows": [
            {"source": vx.fmt(v), "s": s, "target": vx.fmt(w)}
            for v in q.vertices
            for s, w in q.out_arrows[v]
        ],
        "components": [
            {"euler": vx.euler(g[0]), "vertices": [vx.fmt(v) for v in g]}
            for g in components(q)
        ],
    }


def box_quiver_json(q):
    return {
        "n": q.n,
        "vertices": [vx.fmt_pair(v) for v in q.vertices],
        "arrows": [
            {"source": vx.fmt_pair(v), "kind": kind, "s": s, "target": vx.fmt_pair(w)}
            for v in q.vertices
            for kind, s, w in q.out_arrows[v]
        ],
    }
