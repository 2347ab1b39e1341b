"""Rees matrix semigroups M[G; I, Lambda; A] over permutation groups.

Elements are triples (i, g, lam) with the product
(i, g, lam)(j, h, mu) = (i, g * A[lam][j] * h, mu); group products follow the
same apply-right-factor-first convention as everywhere else.  A presentation
is *normalized* w.r.t. a slot (i0, lam0) when row lam0 and column i0 of the
sandwich matrix are all identity; the idempotent (i0, 1, lam0) is then the
distinguished one.

For substitution sandwiches the module builds the faithful action on the
two-word fiber, one map at a time, and proves it an injective homomorphism
from 2|I| letter identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalCheckError, ValidationError
from .perms import Perm, PermGroup, after, compose, identity, inverse
from .semigroups import FiberMap, green_summary, map_after, map_compose
from .substitution import TwoWordFiber

PLUS, MINUS = 0, 1
SIGN_LABELS = ("+", "-")


class ReesElement(NamedTuple):
    """A triple (i, g, lam).  As a named tuple it hashes and compares equal to
    the plain tuple (i, g, lam), so a dict keyed by triples answers a plain
    tuple without its constructor, a Python-level call."""

    i: int  # index into I
    g: Perm
    lam: int  # index into Lambda


@dataclass(frozen=True)
class ReesMatrixSemigroup:
    group: PermGroup
    i_labels: tuple
    lam_labels: tuple
    sandwich: tuple[tuple[Perm, ...], ...]  # Lambda x I
    base: tuple[int, int] = (0, 0)  # (i0, lam0) of the normalizing idempotent

    def __post_init__(self):
        if len(self.sandwich) != len(self.lam_labels):
            raise ValidationError("sandwich matrix has wrong number of rows")
        for row in self.sandwich:
            if len(row) != len(self.i_labels):
                raise ValidationError("sandwich matrix has wrong number of columns")
            for entry in row:
                if entry not in self.group:
                    raise ValidationError("sandwich entry outside the structure group")

    @property
    def size(self) -> int:
        return len(self.i_labels) * self.group.order * len(self.lam_labels)

    def elements(self):
        for i in range(len(self.i_labels)):
            for g in self.group.elements:
                for lam in range(len(self.lam_labels)):
                    yield ReesElement(i, g, lam)

    def is_normalized(self) -> bool:
        i0, lam0 = self.base
        ident = identity(self.group.degree)
        return (all(entry == ident for entry in self.sandwich[lam0])
                and all(row[i0] == ident for row in self.sandwich))

    def green_summary(self) -> dict:
        """Green's structure by Rees's theorem (Howie, *Fundamentals of
        Semigroup Theory*, Thm 3.4.1): with every sandwich entry in G the
        semigroup is completely simple, x R y exactly when x and y share i,
        and x L y exactly when they share lam.  So there are |Lambda|
        L-classes of size |I||G|, |I| R-classes of size |Lambda||G|, |I||Lambda|
        H-classes of size |G|, each a group with one idempotent, and one
        D-class, which is the whole semigroup and its kernel."""
        n_i, n_lam, order = len(self.i_labels), len(self.lam_labels), self.group.order
        return green_summary({n_i * order: n_lam}, {n_lam * order: n_i},
                             {order: n_i * n_lam}, {self.size: 1},
                             n_i * n_lam, self.size)


def idempotents_of(m: ReesMatrixSemigroup) -> list[ReesElement]:
    """Exactly the triples (i, A[lam][i]^-1, lam); count |I|*|Lambda|."""
    return [ReesElement(i, inverse(m.sandwich[lam][i]), lam)
            for i in range(len(m.i_labels)) for lam in range(len(m.lam_labels))]


def substitution_sandwich(group: PermGroup, i_perms: list[Perm] | tuple[Perm, ...],
                          g0: Perm) -> ReesMatrixSemigroup:
    """The two-row sandwich over the structure group G = <I>: plus row all
    identity, minus row g0 * g^-1 per column g.  Normalized w.r.t. the
    idempotent (g0, 1, +).  ``group`` is taken as given, not closed again;
    each column label must lie in it."""
    i_perms = tuple(i_perms)
    if g0 not in i_perms:
        raise ValidationError("g0 must be one of the given permutations")
    if any(g not in group.element_set for g in i_perms):
        raise ValidationError("the given permutations must lie in the structure group")
    ident = identity(group.degree)
    plus_row = tuple(ident for _ in i_perms)
    minus_row = tuple(compose(g0, inverse(g)) for g in i_perms)
    m = ReesMatrixSemigroup(group, i_perms, SIGN_LABELS, (plus_row, minus_row),
                            base=(i_perms.index(g0), PLUS))
    if not m.is_normalized():
        raise InternalCheckError("substitution sandwich failed its normalization check")
    return m


# ---------------------------------------------------------------------------
# the action of a substitution sandwich on its two-word fiber

IN_FIBER, SANDWICH_RELATION, FAITHFULNESS = "fiber", "sandwich relation", "faithfulness"
STAGE = "fiber action"


def _letter_reads(fiber: TwoWordFiber, g0: Perm) -> tuple[FiberMap, FiberMap]:
    """The letter that a + map and a - map read at each fixed point a.b:
    c_+(a.b) = b, and g0 c_-(a.b) = g0(a), with c_-(a.b) = a and the factor
    g0 of R = g g0 folded in."""
    return tuple([b for _, b in fiber.pairs]), tuple([g0[a] for a, _ in fiber.pairs])


def _broken(message: str, law: str, witness: ReesElement) -> InternalCheckError:
    return InternalCheckError(message, law=law, witness=witness, stage=STAGE)


class FiberAction:
    """The faithful action phi of a substitution sandwich M[G; I, {+,-}; A]
    on its two-word fiber, encoded and decoded one map at a time.

    The triple (i, g, +) acts as a.b -> L(b).R(b) and (i, g, -) as
    a.b -> L(a).R(a), where R = g (resp. g g0) and L = i^-1 R; this inverts
    the bijection used to put the fiber semigroup into matrix form.  With
    T_i the map from a letter r to the fixed point (i^-1 r, r), c_+ the map
    that reads b off a.b and c_- the one that reads a, and g0 folded into
    c_- from here on, phi(i, g, lam) = T_i g c_lam.  :meth:`encode` writes
    one map, :meth:`decode` names one, and no map is built ahead.

    The constructor proves phi an injective homomorphism from the |I| lists
    T_i and the 2|I| sandwich entries.  Each check raises InternalCheckError
    with its law, a triple and the stage "fiber action":

    * fiber: each (i^-1 r, r) is an allowed two-word.  For a substitution,
      with i = c_j c_(j-1)^-1 for columns c_j and x = c_j^-1 r, it is
      (c_(j-1)(x), c_j(x)), letters j-1, j of the rule of x;
    * sandwich relation: the 2|I| letter identities c_lam T_j = A[lam][j],
      that is c_+ T_j = 1 and c_- T_j = j^-1 before g0 is folded in, since
      A[+][j] = 1 and A[-][j] = g0 j^-1.  They compose the encoder's own
      reads, g0 included, and fail at (i0, A[lam][j], +), the right side of
      phi(i0, 1, lam) phi(j, 1, +) = phi(i0, A[lam][j], +);
    * faithfulness: the T_i are distinct, and two fixed points k and k'
      share their right letter and differ in their left one, as T_0(r) and
      T_1(r) do at a letter r where T_0 and T_1 differ, once |I| >= 2.

    Homomorphism.  For x = (i, g, lam) and y = (j, h, mu),

        phi(x) phi(y) = T_i g c_lam T_j h c_mu = T_i (g A[lam][j] h) c_mu
                      = phi(i, g A[lam][j] h, mu) = phi(xy).

    The left factor reads the word (j^-1 R', R') that the right factor
    writes, with R' = h (mu = +) or h g0 (mu = -), so the four cases are
    - (i, g, +)(j, h, +) = (i, g h, +): a.b -> i^-1 g h(b) . g h(b);
    - (i, g, +)(j, h, -) = (i, g h, -): a.b -> i^-1 g h g0(a) . g h g0(a);
    - (i, g, -)(j, h, +) = (i, g g0 j^-1 h, +):
      a.b -> i^-1 g g0 j^-1 h(b) . g g0 j^-1 h(b);
    - (i, g, -)(j, h, -) = (i, g g0 j^-1 h, -):
      a.b -> i^-1 g g0 j^-1 h g0(a) . g g0 j^-1 h g0(a).
    The image of a homomorphism is closed under composition, so the image
    of phi is the fiber semigroup, and no closure of maps is run.

    Injectivity.  The sandwich is normalized at (i0, +), where g0 is the
    label of i0, so A[lam][i0] = 1 and phi(i, g, lam) T_i0 = T_i g for
    either sign.  Its right letters give c_+ T_i g = g, then T_i g g^-1
    gives T_i, so i.  A + map reads only the right letter, so it sends k
    and k' to one point; a - map reads their distinct left letters through
    T_i g, injective as c_+ T_i = 1, so it separates them.  So phi(x) =
    phi(y) only for x = y, and :meth:`decode` takes these steps.  The
    identities also make c_+ and c_- onto the letters, since each c_lam T_j
    is a permutation.

    Cost: |I| s lookups for the T_i and 2|I| compositions of s letters,
    then O(s + fiber) per map encoded or decoded, where writing out phi
    takes |S| = 2|I||G| maps.
    """

    def __init__(self, matrix: ReesMatrixSemigroup, fiber: TwoWordFiber):
        if matrix.lam_labels != SIGN_LABELS:
            raise ValidationError("fiber action requires a substitution sandwich with signs {+,-}")
        self.matrix = matrix
        i0 = matrix.base[0]
        ident = identity(matrix.group.degree)
        pair_index = {p: k for k, p in enumerate(fiber.pairs)}
        targets = []
        for i, i_perm in enumerate(matrix.i_labels):
            i_inv = inverse(i_perm)
            # T_i: the fixed point (i^-1 r, r) for each letter r, as a fiber index
            target = tuple([pair_index.get((i_inv[r], r)) for r in range(len(i_perm))])
            if None in target:
                r = target.index(None)
                raise _broken(f"fiber action left the fiber: {(i_inv[r], r)} is not an "
                              "allowed two-word", IN_FIBER, ReesElement(i, ident, PLUS))
            targets.append(target)
        self.targets = tuple(targets)

        reads = _letter_reads(fiber, matrix.i_labels[i0])
        for lam, read in enumerate(reads):
            for j, target in enumerate(self.targets):
                entry = matrix.sandwich[lam][j]
                if map_compose(read, target) != entry:
                    x = ReesElement(i0, entry, PLUS)
                    raise _broken(f"fiber action breaks the {SANDWICH_RELATION} at the "
                                  f"triple {tuple(x)}", SANDWICH_RELATION, x)
        self._reads = tuple(map_after(read) for read in reads)
        self._rights = reads[PLUS]

        self._rows: dict[FiberMap, int] = {}
        for j, target in enumerate(self.targets):
            if self._rows.setdefault(target, j) != j:
                raise _broken(f"fiber action is not faithful: rows {self._rows[target]} and {j} "
                              "write the same fixed points", FAITHFULNESS, ReesElement(j, ident, PLUS))
        first: dict[int, int] = {}  # the first fixed point with each right letter
        twins = next(((first[b], k) for k, (_, b) in enumerate(fiber.pairs)
                      if first.setdefault(b, k) != k), None)
        if twins is None:
            raise _broken("fiber action is not faithful: no letter has two predecessors, so a "
                          "+ map can equal a - map", FAITHFULNESS, ReesElement(i0, ident, MINUS))
        self._twins = twins

    def encode(self, i: int, g: Perm, lam: int) -> FiberMap:
        """phi(i, g, lam) = T_i g c_lam, in two getter calls."""
        return self._reads[lam](after(g)(self.targets[i]))

    def decode(self, f: FiberMap) -> ReesElement | None:
        """The triple x with phi(x) = f, or None when f is no image of phi:
        the steps of the injectivity proof, accepted only when x encodes
        back to f."""
        k, k2 = self._twins
        lam = PLUS if f[k] == f[k2] else MINUS
        written = map_compose(f, self.targets[self.matrix.base[0]])  # T_i g
        g = map_compose(self._rights, written)
        if g not in self.matrix.group:
            return None
        i = self._rows.get(compose(written, inverse(g)))
        if i is None:
            return None
        x = ReesElement(i, g, lam)
        return x if self.encode(*x) == f else None


def as_transformation_semigroup(m: ReesMatrixSemigroup,
                                fiber: TwoWordFiber) -> dict[ReesElement, FiberMap]:
    """phi written out, a dict from each of the |S| triples to its fiber
    map; ``--verify`` encodes only the maps it names (:class:`FiberAction`)."""
    action = FiberAction(m, fiber)
    return {x: action.encode(*x) for x in m.elements()}
