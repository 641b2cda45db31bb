import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from cliffcat import quiver as qv
from cliffcat import vertices as vx


def test_vertex_seq_round_trip():
    assert vx.seq(vx.from_seq((3, 1, 0))) == (3, 1, 0)
    assert vx.seq(0) == ()
    assert vx.fmt(vx.from_seq((2, 0))) == "[2,0]"
    assert vx.fmt(0) == "[]"
    assert vx.parse("[ 2, 1 , 0 ]") == vx.from_seq((2, 1, 0))
    assert vx.parse("[]") == 0
    with pytest.raises(ValueError):
        vx.parse("[0,1]")
    with pytest.raises(ValueError):
        vx.parse("[3]", n=2)
    # elements are ASCII digits only: no int() spellings such as 1_0
    for text in ("[x]", "[1,,0]", "[1_0]"):
        with pytest.raises(ValueError, match="bad vertex syntax"):
            vx.parse(text)


def test_euler_alternating():
    # both popcounts on every vertex mask of every n up to MAX_N
    for v in range(1 << (vx.MAX_N + 1)):
        elems = vx.seq(v)
        assert vx.length(v) == len(elems), v
        assert vx.euler(v) == sum((-1) ** s for s in elems), v


def test_gamma2_structure():
    # 8 vertices in 4 components; the three-element components mix lengths
    g = qv.build_gamma(2)
    assert len(g.vertices) == 8
    comps = qv.components(g)
    assert len(comps) == 4
    by_euler = {vx.euler(c[0]): sorted(vx.fmt(v) for v in c) for c in comps}
    assert by_euler == {
        0: ["[1,0]", "[2,1]", "[]"],
        1: ["[0]", "[2,1,0]", "[2]"],
        -1: ["[1]"],
        2: ["[2,0]"],
    }


def test_gamma1_components():
    g = qv.build_gamma(1)
    comps = qv.components(g)
    assert sorted(len(c) for c in comps) == [1, 1, 2]


def test_invalid_n():
    with pytest.raises(ValueError):
        qv.build_gamma(0)


@given(st.integers(1, 5))
def test_arrows_add_one_pair(n):
    g = qv.build_gamma(n)
    for v, arrs in g.out_arrows.items():
        for s, w in arrs:
            assert vx.length(w) == vx.length(v) + 2
            assert w == v | qv.pair_mask(s)
            assert vx.euler(w) == vx.euler(v)


@given(st.integers(1, 5))
def test_components_refine_euler(n):
    g = qv.build_gamma(n)
    for comp in qv.components(g):
        assert len({vx.euler(v) for v in comp}) == 1


def test_box_arrows_gamma2():
    q = qv.build_gamma_box(2)
    assert len(q.vertices) == 64
    # diagonal arrows need room on both sides
    arrs = q.out_arrows[(0, 0)]
    kinds = sorted((kind, s) for kind, s, _ in arrs)
    assert kinds == [("D", 0), ("X", 0), ("X", 1), ("Y", 0), ("Y", 1)]
    (tgt,) = [t for kind, s, t in arrs if kind == "D"]
    assert tgt == (vx.from_seq((1, 0)), vx.from_seq((2, 1)))


def test_arrow_degrees():
    assert qv.arrow_qdeg(2, "X", 0) == 1
    assert qv.arrow_qdeg(2, "Y", 1) == -1
    assert qv.arrow_qdeg(2, "D", 0) == 0
    assert qv.arrow_cohdeg("D") == -1
    assert qv.arrow_cohdeg("X") == 0


def test_quiver_json_deterministic():
    a = qv.quiver_json(qv.build_gamma(2))
    b = qv.quiver_json(qv.build_gamma(2))
    assert a == b
    assert len(a["arrows"]) == 4


# SHA-256 of the sort_keys JSON of the boxed quiver; fixes its arrow order
BOX_QUIVER_DIGESTS = {
    1: "a3a0297a55447bf877cf2b82f5d42c62a59d5e6ed6b3ef2045cd41296889c940",
    2: "05218fe8ca6fc8ab962153667108b96121a89cd209da380d78f9433e745b0ab1",
    3: "b86457ea60f5718d4a3df6ee29dc54c3052368e525a79b00f5a0ba0a56df8411",
}


@pytest.mark.parametrize("n", sorted(BOX_QUIVER_DIGESTS))
def test_box_quiver_json_digest_pinned(n):
    doc = json.dumps(qv.box_quiver_json(qv.build_gamma_box(n)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == BOX_QUIVER_DIGESTS[n]
