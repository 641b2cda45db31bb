"""Word liftings: complexes categorifying products of generators.

The generators E and F lift to direct sums of single projectives; a word over
{One, Q, Qinv, E, F} lifts by folding the composite product rho (tensor over
the ground field, lift to the DG thickening, tensor with the bimodule) over a
chosen association tree.  On Grothendieck classes rho is the vertex product;
cliffcat.checks sweeps that, the unit laws and the squared-generator shape.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial

from .bimodule import act_element, t_pair, tensor_T
from .complexes import (
    LiftError, ProjComplex, Summand, _lift_entry, _side_entry, algebra, check_factors,
    lift_to_box, mat_add, mat_then, tensor_entries, tensor_f2,
)
from .kzero import postorder

LETTERS = ("One", "Q", "Qinv", "E", "F")
# One, Q and Qinv are P([]) shifted by this q-degree; E and F are the direct
# sum of P([i]) (the vertex mask 1 << i) over the i <= n of this parity
_SHIFTS = {"One": 0, "Q": 1, "Qinv": -1}
_PARITIES = {"E": 0, "F": 1}


def letter_complex(n, letter):
    if letter in _SHIFTS:
        summands = (Summand(0, _SHIFTS[letter], 0),)
    elif letter in _PARITIES:
        summands = tuple(Summand(1 << i, 0, 0) for i in range(_PARITIES[letter], n + 1, 2))
    else:
        raise ValueError(f"unknown letter {letter!r}")
    return ProjComplex(algebra("R", n), summands, {})


def rho(m, nc):
    """The lifted product of two complexes over R: tensor_T of the lift of
    their tensor square to Box, as tensor_T(lift_to_box(tensor_f2(m, nc)))
    gives it, written block by block with no RR or Box complex.

    The lift's residual is zero at keys two steps away on one side (the
    section of the RR square).  At the cross key of left entry e = (j, i)
    and right entry f = (j2, i2), its two paths read e and f alone, and it
    is zero unless both move a vertex, so _cross_correction corrects only
    such pairs; where it places one, c*delta + delta*c + c*c is checked
    here.  A refused pair re-lifts the whole square for lift_to_box's
    witness.  Each summand pair's T block comes shifted from _block.  Inputs
    are checked by check_factors, the output by tensor_T."""
    check_factors(m, nc)
    n, w = m.ops.n, len(nc.summands)
    blocks = [_block(n, x, y, a1 + a2, b1 + b2)
              for x, a1, b1 in m.summands for y, a2, b2 in nc.summands]
    actions = tensor_entries(m, nc, partial(_side_action, n))
    left, right = _moving(m), _moving(nc)
    try:
        corrections = {
            (j * w + j2, i * w + i2): c
            for (j, i), e in left for (j2, i2), f in right
            if (c := _cross_correction(n, e, f)) is not None
        }
    except LiftError:
        lift_to_box(tensor_f2(m, nc))
        raise
    if corrections:
        ops = algebra("Box", n)
        delta = {(j, i): e for j, i, e in tensor_entries(m, nc, partial(_side_lift, n))}
        square = mat_add(mat_then(ops.mult, corrections, delta | corrections),
                         mat_then(ops.mult, delta, corrections))
        if square:
            raise LiftError(f"d(delta)+delta^2 nonzero at {min(square)} over Box")
        actions += [(j, i, act_element(n, c)) for (j, i), c in corrections.items()]
    return tensor_T(n, blocks, actions)


@lru_cache(maxsize=None)
def _block(n, x, y, q, k):
    """The T(x, y) block of a summand pair whose shifts add to (q, k), as
    tensor_T takes it: the block's summands shifted by (q, k), and its
    differential (t_pair's own dict, which callers must not mutate)."""
    c = t_pair(n, x, y).complex
    new = tuple.__new__
    return tuple([new(Summand, (v, q + tq, k + tk)) for v, tq, tk in c.summands]), c.delta


def _moving(c):
    """The entries of a checked complex c over R whose monomial (x, w) has
    x != w (a checked entry is one basis monomial).  An idempotent entry
    lifts to the empty path, so its cross keys have no residual."""
    return [(key, e) for key, e in c.delta.items() for x, w in e if x != w]


@lru_cache(maxsize=None)
def _side_lift(n, e, v, left):
    """e (x) 1_v (left) or 1_v (x) e lifted through the section, as lift_to_box does."""
    return _lift_entry(n, _side_entry(e, v, left))


@lru_cache(maxsize=None)
def _side_action(n, e, v, left):
    """The action on T blocks of _side_lift's entry."""
    return act_element(n, _side_lift(n, e, v, left))


@lru_cache(maxsize=None)
def _cross_correction(n, e, f):
    """The correction at the cross key of left entry e and right entry f, or
    None: the corner (3, 0) of lift_to_box(tensor_f2(P_e, P_f)), where
    P_e = P(x){0}[0] -> P(w){qdeg e}[1] for e from x to w."""
    ops = algebra("R", n)
    arrows = [ProjComplex(ops, (Summand(x, 0, 0), Summand(w, q, 1)), {(1, 0): a})
              for a in (e, f) for q, _, x, w in [ops.degrees[a]]]
    return lift_to_box(tensor_f2(*arrows)).delta.get((3, 0))


# ---------------------------------------------------------------------------
# words and association trees


@dataclass(frozen=True)
class Word:
    letters: tuple
    association: object = None  # nested pair tree of leaf indices, or None

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter not in LETTERS:
                raise ValueError(f"unknown letter {letter!r}")
        if self.association is not None:
            leaves = [t for t in postorder(self.association) if isinstance(t, int)]
            if leaves != list(range(len(self.letters))):
                raise ValueError("association leaves do not match the letters")


def left_fold_tree(k):
    """The association ((..(01)2)..k-1)."""
    if k == 0:
        raise ValueError("empty word")
    tree = 0
    for i in range(1, k):
        tree = (tree, i)
    return tree


def parse_association(text):
    """Parse '((..).)' into a nested pair tree with leaves numbered in order.

    Open groups live on an explicit stack, so any nesting depth parses."""
    groups = [[]]  # the top level, then one list of subtrees per open '('
    leaves = 0
    for ch in text:
        if ch == "(":
            groups.append([])
            continue
        if ch == ".":
            tree, leaves = leaves, leaves + 1
        elif ch == ")" and len(groups) > 1 and len(groups[-1]) == 2:
            tree = tuple(groups.pop())
        elif ch == ")":
            raise ValueError("unbalanced association string")
        else:
            raise ValueError(f"unexpected {ch!r} in association string")
        if len(groups) == 1 and groups[0]:
            raise ValueError("trailing characters in association string")
        if len(groups[-1]) == 2:
            raise ValueError("unbalanced association string")
        groups[-1].append(tree)
    if len(groups) > 1 or not groups[0]:
        raise ValueError("unbalanced association string")
    return groups[0][0]


def parse_word(text, assoc=None):
    """Parse a word like 'EFE', 'q E q-1' or 'q-1' into a Word.

    Text with whitespace splits there; text without it is one letter if it
    names one ('q-1', 'Qinv', 'One'), else one letter per character."""
    aliases = {"E": "E", "F": "F", "1": "One", "q": "Q", "q-1": "Qinv"}
    if any(c.isspace() for c in text):
        parts = text.split()
    else:
        parts = [text] if text in aliases or text in LETTERS else list(text)
    if any(p not in aliases and p not in LETTERS for p in parts):
        raise ValueError(f"cannot parse word {text!r}")
    letters = tuple(aliases.get(p, p) for p in parts)
    tree = None if assoc is None else parse_association(assoc)
    return Word(letters, tree)


# Bounded: a sweep of many trees over one word set meets each proper sub-lift
# many times (a lift-n4 round makes 10,752 steps below its roots and 548
# distinct sub-lifts, holding about 36k summands and 24k entries), while long
# sweeps at large n keep meeting new ones.  The memo holds at most this many
# summands plus entries, plus one per sub-lift so that empty ones count too.
_SUBLIFT_CAP = 1 << 18


def _held(c):
    return len(c.summands) + len(c.delta) + 1


class _SubLifts:
    """The proper sub-lifts of lift_word by node key, oldest first.

    A node key is an int hash-consed in keys: a leaf interns (n, letter) and
    an inner node (left key, right key), so equal sub-words share a key
    wherever they sit in a word and a key costs O(1) per node.  held counts
    what the stored lifts hold, as _SUBLIFT_CAP does; store evicts the
    oldest lifts to stay within the cap and never stores a larger one."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.keys, self.lifts, self.held = {}, OrderedDict(), 0

    def key(self, node):
        return self.keys.setdefault(node, len(self.keys))

    def store(self, key, c):
        size = _held(c)
        if size > _SUBLIFT_CAP:
            return
        while self.held + size > _SUBLIFT_CAP:
            self.held -= _held(self.lifts.popitem(last=False)[1])
        self.lifts[key] = c
        self.held += size


_SUBLIFTS = _SubLifts()


def lift_word(n, word):
    """Fold rho over the association tree (default: left fold) as
    kzero.postorder walks it, so any tree depth folds.

    Each proper sub-lift is looked up in _SUBLIFTS by its node key and
    stored there on a miss, so a sweep over many trees lifts each sub-word
    once; a step that raises stores nothing.  The root is always computed
    and never stored, so the caller owns the complex it gets back."""
    tree = word.association
    if tree is None:
        tree = left_fold_tree(len(word.letters))
    memo = _SUBLIFTS
    if len(memo.keys) > _SUBLIFT_CAP:  # keys outlive evicted lifts
        memo.clear()
    done = []  # (node key, lift) of the subtrees walked and not yet joined
    for t in postorder(tree):
        if isinstance(t, int):
            letter = word.letters[t]
            done.append((memo.key((n, letter)), letter_complex(n, letter)))
            continue
        (rkey, right), (lkey, left) = done.pop(), done.pop()
        if t is tree:
            return rho(left, right)
        key = memo.key((lkey, rkey))
        c = memo.lifts.get(key)
        if c is None:
            c = rho(left, right)
            memo.store(key, c)
        done.append((key, c))
    return done[0][1]
