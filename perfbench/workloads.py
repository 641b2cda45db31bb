"""The benchmark's workloads: seeded inputs, one op, and its check.

Every workload draws its inputs from ``random.Random(seed)``; cliffcat only
ever sees the generated inputs.  ``op`` is the timed call into cliffcat's
public API.  ``check`` and ``digest`` run after the timer stops: ``check``
returns None or a message, and ``digest`` returns the canonical text of the
op's output that goes into the run's determinism digest.  Ops look cliffcat
functions up as module attributes at call time, so a traced run sees its
wrappers.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import random


def _mod(name):
    return importlib.import_module(f"cliffcat.{name}")


def _kclass_text(a):
    return repr(sorted((v, c.items()) for v, c in a.items()))


class Assoc:
    """One associativity check of the vertex product on a random triple."""

    round_ops = 200

    def __init__(self, n, seed):
        self.n = n
        self.kz = _mod("kzero")
        self.rng = random.Random(seed)

    def next_input(self):
        bits = self.n + 1
        return tuple(self.rng.getrandbits(bits) for _ in range(3))

    def op(self, inp):
        kz, n = self.kz, self.n
        a, b, c = inp
        lhs = kz.mult(n, kz.mult_mono(n, a, b), kz.kclass(c))
        rhs = kz.mult(n, kz.kclass(a), kz.mult_mono(n, b, c))
        return lhs, rhs

    def check(self, inp, out):
        lhs, rhs = out
        if lhs != rhs:
            return f"n={self.n} triple {inp}: (ab)c != a(bc)"
        return None

    def digest(self, out):
        return _kclass_text(out[0])


def association_trees(lo, hi):
    """Every binary association tree over the leaves lo..hi-1."""
    if hi - lo == 1:
        return [lo]
    return [
        (left, right)
        for mid in range(lo + 1, hi)
        for left in association_trees(lo, mid)
        for right in association_trees(mid, hi)
    ]


def shuffled_rounds(items, rng):
    """Endless stream of ``items``, each round a fresh seeded permutation."""
    while True:
        round_ = list(items)
        rng.shuffle(round_)
        yield from round_


class Lift:
    """Lift a random length-6 word over {E, F} along a random tree, n=4.

    A round is all 64 x 42 (word, tree) pairs in a seeded order.  Op cost
    depends on the pair and is steep around the median, so a run of part
    of a round moves ``op_ms_p50`` with the draw; whole rounds fix a run's
    mix, and the seed only sets the order.
    """

    n = 4
    length = 6

    def __init__(self, seed):
        self.cu, self.cx, self.kz = _mod("catun"), _mod("complexes"), _mod("kzero")
        words = itertools.product(("E", "F"), repeat=self.length)
        trees = association_trees(0, self.length)
        pairs = list(itertools.product(words, trees))
        self.round_ops = len(pairs)
        self.pairs = shuffled_rounds(pairs, random.Random(seed))
        self.folds = {}

    def next_input(self):
        return next(self.pairs)

    def op(self, inp):
        letters, tree = inp
        return self.cu.lift_word(self.n, self.cu.Word(letters, tree))

    def check(self, inp, out):
        ok, witness = self.cx.verify_mc(out)
        if not ok:
            return f"{''.join(inp[0])} {inp[1]}: verify_mc: {witness}"
        if self.cx.k0_class(out) != self._fold(*inp):
            return f"{''.join(inp[0])} {inp[1]}: K0 class differs from the kzero fold"
        return None

    def _fold(self, letters, tree):
        key = (letters, tree)
        if key not in self.folds:
            if isinstance(tree, int):
                value = self.kz.iota_letter(self.n, letters[tree])
            else:
                value = self.kz.mult(
                    self.n, self._fold(letters, tree[0]), self._fold(letters, tree[1])
                )
            self.folds[key] = value
        return self.folds[key]

    def digest(self, out):
        return json.dumps(self.cx.complex_to_json(out), sort_keys=True)


class BoxSweep:
    """Build BoxAlgebra(3) afresh and sweep its DG and formality checks."""

    n = 3
    round_ops = 20
    # Counts at the commit that defined this benchmark.
    classes = 921
    composable = 2128

    def __init__(self, seed):
        self.bx, self.ra = _mod("boxalgebra"), _mod("ralgebra")
        verts = range(1 << (self.n + 1))
        pairs = [(x, y) for x in verts for y in verts]
        self.pair_pairs = [(p, q) for p in pairs for q in pairs]
        random.Random(seed).shuffle(self.pair_pairs)

    def next_input(self):
        return self.pair_pairs

    def op(self, pair_pairs):
        bx, ra, n = self.bx, self.ra, self.n
        alg = bx.BoxAlgebra(n).build_all()
        monos = list(alg.all_monomials())
        bad = collections.Counter()
        by_deg = collections.Counter()
        by_source = {}
        for m in monos:
            cd, qd = alg.cohdeg(m[1]), alg.qdeg(m[1])
            by_deg[cd] += 1
            by_source.setdefault(m[0], []).append(m)
            if alg.diff(alg.diff_mono(m)):
                bad["d^2"] += 1
            for dm in alg.diff_mono(m):
                if alg.cohdeg(dm[1]) != cd + 1 or alg.qdeg(dm[1]) != qd:
                    bad["bidegree"] += 1
        nonzero = 0
        for src, tgt in pair_pairs:
            want = ra.dim_rr(n, src, tgt)
            nonzero += bool(want)
            if alg.cohomology_dims(src, tgt) != ({0: want} if want else {}):
                bad["cohomology"] += 1
        composable = 0
        for m1 in monos:
            for m2 in by_source.get(bx.path_target(*m1), []):
                composable += 1
                lhs = alg.h_map(frozenset([alg.mult_mono(m1, m2)]))
                rhs = ra.mult_rr(n, alg.h_map(frozenset([m1])), alg.h_map(frozenset([m2])))
                if lhs != rhs:
                    bad["h_map"] += 1
        return {
            "classes": len(monos),
            "classes_by_cohdeg": sorted(by_deg.items()),
            "pairs": len(pair_pairs),
            "nonzero_pairs": nonzero,
            "composable": composable,
            "bad": dict(bad),
        }

    def check(self, inp, out):
        want = {"classes": self.classes, "pairs": len(inp), "composable": self.composable}
        got = {k: out[k] for k in want}
        if out["bad"]:
            return f"failed checks {out['bad']}"
        if got != want:
            return f"counts {got} != {want}"
        return None

    def digest(self, out):
        return json.dumps({k: v for k, v in out.items() if k != "bad"}, sort_keys=True)


# name -> (modules a workload process imports before its first op, which
# set-up time covers; constructor taking the seed)
WORKLOADS = {
    "assoc-n5": (("cliffcat.kzero",), lambda seed: Assoc(5, seed)),
    "assoc-n10": (("cliffcat.kzero",), lambda seed: Assoc(10, seed)),
    "lift-n4": (("cliffcat.catun",), Lift),
    "box-sweep-n3": (("cliffcat.boxalgebra",), BoxSweep),
}
