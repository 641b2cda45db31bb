"""The DG thickening: differential, gradings, cohomology, comparison map."""

import pytest

from cliffcat import cli
from cliffcat import ralgebra as ra
from cliffcat import vertices as vx
from cliffcat.boxalgebra import BoxAlgebra, box_algebra, fmt_mono_box, path_key, path_target
from cliffcat.quiver import XSIDE, YSIDE, box_arrow_targets


@pytest.fixture(scope="module")
def alg2():
    a = box_algebra(2)
    a.build_all()
    return a


# -- oracle: path enumeration and union-find over adjacent swaps -------------


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


def oracle_classes(n, source):
    """{target: [class]} with each class the list of its paths, by brute force."""
    # enumerate all paths out of source
    paths = []
    stack = [((), source)]
    while stack:
        arrows, at = stack.pop()
        paths.append(arrows)
        for kind, s, tgt in box_arrow_targets(n, at):
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
            if j is not None and path_target(source, swapped) is not None:
                parent[find(i)] = find(j)
    groups = {}
    for p, i in index.items():
        groups.setdefault(find(i), []).append(p)
    by_target = {}
    for members in groups.values():
        by_target.setdefault(path_target(source, members[0]), []).append(members)
    return by_target


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_matches_oracle(n):
    alg = BoxAlgebra(n)
    for x in vx.all_vertices(n):
        for y in vx.all_vertices(n):
            source = (x, y)
            oracle = oracle_classes(n, source)
            alg._ensure(source)
            assert {t for s, t in alg._classes if s == source} == set(oracle)
            for target, classes in oracle.items():
                mins = [min(members, key=path_key) for members in classes]
                want = sorted(mins, key=path_key)
                # a class has at most n + 1 diagonal arrows, each of degree -1
                degrees = range(-(n + 1), 1)
                assert all(alg.cohdeg(p) in degrees for p in want)
                for d in degrees:
                    assert alg.hom_basis(source, target, d) == [p for p in want if alg.cohdeg(p) == d]
                for members, least in zip(classes, mins):
                    for p in members:
                        assert alg.normal_form(source, p) == least, (source, p)


def test_reach_n6():
    # past the reach of path enumeration: every target from the empty pair
    n = 6
    alg = BoxAlgebra(n)
    verts = list(vx.all_vertices(n))
    for x in verts:
        for y in verts:
            want = ra.dim_rr(n, (0, 0), (x, y))
            assert alg.cohomology_dims((0, 0), (x, y)) == ({0: want} if want else {})


def test_lift_n6(capsys):
    assert cli.main(["lift", "--n", "6", "--word", "EFE"]) == 0
    assert "k0 =" in capsys.readouterr().out


def test_d_squared_zero(alg2):
    for m in alg2.all_monomials():
        assert not alg2.diff(alg2.diff_mono(m)), m


def test_differential_bidegree(alg2):
    for m in alg2.all_monomials():
        for dm in alg2.diff_mono(m):
            assert alg2.cohdeg(dm[1]) == alg2.cohdeg(m[1]) + 1
            assert alg2.qdeg(dm[1]) == alg2.qdeg(m[1])


def test_diag_differential_is_anticommutator(alg2):
    # d of the diagonal generator at s is the sum of the two mixed composites
    src = (0, 0)
    d = alg2.diff_mono((src, (("D", 0),)))
    want = {
        (src, alg2.normal_form(src, (("X", 0), ("Y", 1)))),
        (src, alg2.normal_form(src, (("Y", 1), ("X", 0)))),
    }
    assert d == frozenset(want)
    assert len(want) == 2  # the excluded swap keeps these distinct


def test_excluded_swap_not_identified(alg2):
    src = (0, 0)
    a = alg2.normal_form(src, (("X", 0), ("Y", 1)))
    b = alg2.normal_form(src, (("Y", 1), ("X", 0)))
    assert a != b
    # while the same pair at non-interacting offsets is identified
    c = alg2.normal_form(src, (("X", 0), ("Y", 0)))
    d = alg2.normal_form(src, (("Y", 0), ("X", 0)))
    assert c == d


def test_cohomology_is_tensor_square(alg2):
    n = 2
    for x1 in vx.all_vertices(n):
        for y1 in vx.all_vertices(n):
            for x2 in vx.all_vertices(n):
                for y2 in vx.all_vertices(n):
                    dims = alg2.cohomology_dims((x1, y1), (x2, y2))
                    want = ra.dim_rr(n, (x1, y1), (x2, y2))
                    assert dims == ({0: want} if want else {})


def test_h_map_multiplicative(alg2):
    n = 2
    monos = list(alg2.all_monomials())
    by_source = {}
    for m in monos:
        by_source.setdefault(m[0], []).append(m)
    for m1 in monos:
        for m2 in by_source.get(path_target(m1[0], m1[1]), []):
            p = alg2.mult_mono(m1, m2)
            lhs = alg2.h_map(frozenset([p]))
            rhs = ra.mult_rr(
                n, alg2.h_map(frozenset([m1])), alg2.h_map(frozenset([m2]))
            )
            assert lhs == rhs, (m1, m2)


def test_section_round_trips(alg2):
    n = 2
    for x1 in vx.all_vertices(n):
        for y1 in vx.all_vertices(n):
            for x2 in vx.all_vertices(n):
                for y2 in vx.all_vertices(n):
                    if not ra.dim_rr(n, (x1, y1), (x2, y2)):
                        continue
                    mono = (
                        ra.basis_mon_r(n, x1, x2),
                        ra.basis_mon_r(n, y1, y2),
                    )
                    lift = alg2.section_rr(mono)
                    assert alg2.h_map(frozenset([lift])) == frozenset([mono])


def test_qdeg_constant_per_hom_class():
    # every class between fixed endpoints carries the forced q-degree, so a
    # lift correction drawn from one Hom-space keeps the q contract
    for n in (2, 3, 4):
        alg = BoxAlgebra(n)
        alg.build_all()
        for (src, tgt), reps in alg._classes.items():
            assert len({alg.qdeg(p) for p in reps}) <= 1


def test_n3_builds():
    a = box_algebra(3)
    src = (0, 0)
    tgt = (vx.from_seq((1, 0)), vx.from_seq((2, 1)))
    # one diagonal class and the two mixed side paths, over every degree
    assert [len(a.hom_basis(src, tgt, d)) for d in range(-4, 1)] == [0, 0, 0, 1, 2]


def test_fmt_mono_box_identity():
    # the identity of Box has no arrows; only failure witnesses print it
    assert fmt_mono_box(((0, 0), ())) == "e([],[])"
