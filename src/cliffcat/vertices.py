"""Vertices of the quivers: strictly decreasing sequences in {0..n}.

A vertex is stored as an int bitmask over {0..n}; bit s set means the
integer s occurs in the sequence.  The empty vertex [] is the mask 0.
"""

from __future__ import annotations

MAX_N = 10  # the largest n of any command, suite or benchmark workload (2^(n+1) vertices)


def seq(v):
    """Decreasing tuple of elements of the vertex mask v."""
    out = []
    s = 0
    m = v
    while m:
        if m & 1:
            out.append(s)
        m >>= 1
        s += 1
    return tuple(reversed(out))


def from_seq(elems, n=None):
    """Build a vertex mask from an iterable of distinct integers."""
    mask = 0
    for e in elems:
        e = int(e)
        if e < 0 or (n is not None and e > n):
            raise ValueError(f"element {e} out of range [0, {n}]")
        if mask >> e & 1:
            raise ValueError(f"repeated element {e}")
        mask |= 1 << e
    return mask


def from_json(data, n):
    """A vertex mask from its JSON form: a strictly decreasing list in [0, n]."""
    if not isinstance(data, list) or not all(type(e) is int for e in data):
        raise ValueError(f"vertex {data!r} is not a list of integers")
    if any(a < b for a, b in zip(data, data[1:])):  # from_seq names a repeat
        raise ValueError(f"vertex {data!r} is not strictly decreasing")
    return from_seq(data, n)


def length(v):
    return v.bit_count()


def euler(v):
    """Alternating-sign count: sum of (-1)^s over elements s."""
    return 2 * (v & 0x5555555555555555).bit_count() - v.bit_count()


def fmt(v):
    return "[" + ",".join(str(e) for e in seq(v)) + "]"


def parse(text, n=None):
    """Parse '[2,1,0]' or '[]' into a vertex mask, checked as from_json
    checks a vertex; each element is a run of ASCII digits."""
    t = "".join(text.split())
    parts = t[1:-1].split(",") if t[1:-1] else []
    digits = all(p.isascii() and p.isdigit() for p in parts)
    if not (t.startswith("[") and t.endswith("]") and digits):
        raise ValueError(f"bad vertex syntax: {text!r}")
    return from_json([int(p) for p in parts], n)


def all_vertices(n):
    """All 2^(n+1) vertex masks over {0..n}."""
    return range(1 << (n + 1))


def fmt_pair(xy):
    x, y = xy
    return f"({fmt(x)},{fmt(y)})"
