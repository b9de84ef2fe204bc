"""Finite groups as multiplication tables, actions, and crossed modules.

Elements are labeled 0..n-1 with 0 the identity.  Every axiom of a table
from outside is checked at construction, each law on generators, and
library makers build what is valid by construction; orders stay small.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DEFAULT_BUDGET, ValidationError, check_budget, depth_first
from .homology import LatticeQuotient


class FiniteGroup:
    """Group given by its multiplication table, identity at index 0."""

    __slots__ = ("order", "table", "inverse", "_abelian")

    def __init__(self, table: Sequence[Sequence[int]], inverse: Sequence[int]):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.inverse = tuple(inverse)
        self._abelian: Optional[bool] = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = all(
                self.table[a][b] == self.table[b][a]
                for a in range(self.order)
                for b in range(a)
            )
        return self._abelian

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _generators(mul: Sequence[Sequence[int]]) -> list:
    """Elements whose left-to-right products from the identity 0 reach
    every element; each is the least element not yet reached.  The
    trivial group's list is [0], so that a law on generators still reads
    its one element."""
    reached, gens = [0], []
    for a in range(len(mul)):
        if a not in reached:
            gens.append(a)
            for x in reached:  # grows while read: the closure under gens
                reached += set(map(mul[x].__getitem__, gens)).difference(reached)
    return gens or [0]


def _law_on_generators(mul, table) -> bool:
    """g (h f) == (g h) f, g acting by rows of ``table``, for generators g
    of ``mul``: the g where it holds are closed under products."""
    return all(
        list(map(table[g].__getitem__, table[h])) == list(table[gh])
        for g in _generators(mul) for h, gh in enumerate(mul[g])
    )


def _least_failure(holds, *ranges) -> tuple:
    """The least tuple of ``ranges``, in lexicographic order, where
    ``holds`` is false: the witness that names a law found to fail on
    generators."""
    return next(t for t in itertools.product(*ranges) if not holds(*t))


def validate_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Check all group axioms on a square table and build the group.

    Element 0 must be a two-sided identity.  Associativity is Light's
    test with the generator as first factor; on a failure the full scan
    names the least witness triple.
    """
    n = len(table)
    if n == 0:
        raise ValidationError("group table is empty")
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"table row {i} has length {len(row)}, want {n}")
        for v in row:
            if not (0 <= v < n):
                raise ValidationError(f"table entry {v} out of range 0..{n - 1}")
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise ValidationError(
                f"element 0 is not a two-sided identity at {a}",
                details={"element": a},
            )
    if not _law_on_generators(table, table):
        triple = _least_failure(
            lambda a, b, c: table[table[a][b]][c] == table[a][table[b][c]],
            range(n), range(n), range(n),
        )
        raise ValidationError(f"associativity fails at {triple}",
                              details={"triple": triple})
    # in a finite associative table with identity, ab = 0 gives ba = 0
    inverse = []
    for a, row in enumerate(table):
        if 0 not in row:
            raise ValidationError(f"element {a} has no two-sided inverse",
                                  details={"element": a})
        inverse.append(row.index(0))
    return FiniteGroup(table, inverse)


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], [0])


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise ValidationError("cyclic group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, [(-a) % n for a in range(n)])


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters via composition of permutations."""
    perms = sorted(itertools.permutations(range(n)))
    ident = tuple(range(n))
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(n))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    inverse = []
    for p in perms:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        inverse.append(index[tuple(inv)])
    return FiniteGroup(table, inverse)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    encode = lambda a, b: a * n2 + b
    table = [
        [
            encode(g1.mul(a1, b1), g2.mul(a2, b2))
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    inverse = [
        encode(g1.inv(a1), g2.inv(a2)) for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteGroup(table, inverse)


def _orbits(items: Iterable, orbit) -> tuple:
    """The partition of ``items`` into orbits, each sorted, in sorted
    order: ``orbit(seed)`` is the set around the least item not yet
    placed."""
    remaining = set(items)
    classes = []
    while remaining:
        found = orbit(min(remaining))
        classes.append(tuple(sorted(found)))
        remaining -= found
    return tuple(sorted(classes))


def conjugacy_classes(group: FiniteGroup) -> tuple:
    """Orbits of the conjugation action, sorted by least member."""
    return _orbits(group.elements(), lambda seed: {
        group.conjugate(g, seed) for g in group.elements()
    })


def enumerate_homs(
    presentation,
    group: FiniteGroup,
    *,
    budget: int = DEFAULT_BUDGET,
) -> List[tuple]:
    """All homomorphisms from a presented group, as generator images, in
    lexicographic order.

    Found by relation propagation: the search branches only on the least
    unassigned generator, trying group elements in order.  Every relation
    that contains a newly assigned generator is then settled: with no
    unknown left it must evaluate to the identity, or the branch dies;
    with one unknown occurring once, u x^±1 v = 1 fixes x^±1 = u^-1 v^-1,
    and that generator is assigned and propagated in turn.  A relation
    whose unknown repeats is only checked once fully assigned.  So on an
    edge-path presentation only about rank-many generators branch.  The
    budget caps the branch guesses (one unit per group element tried at
    a branching generator); forced assignments are free.
    """
    check_budget(budget)
    k = presentation.generator_count
    table, inverse = group.table, group.inverse
    words = [
        tuple((abs(s) - 1, s > 0) for s in word)
        for word in presentation.relations
    ]
    containing: List[List[tuple]] = [[] for _ in range(k)]
    for word in words:
        for i in sorted({i for i, _ in word}):
            containing[i].append(word)
    images: List[Optional[int]] = [None] * k
    trail: List[int] = []  # assigned generators, in order; also the queue

    def settle(word) -> bool:
        """Check the word or fix its one unknown; False on a contradiction."""
        unknown = -1
        for pos, (i, _) in enumerate(word):
            if images[i] is None:
                if unknown >= 0:
                    return True  # two unknown occurrences: wait
                unknown = pos
        u = 0
        for i, positive in word if unknown < 0 else word[:unknown]:
            g = images[i]
            u = table[u][g if positive else inverse[g]]
        if unknown < 0:
            return u == 0
        v = 0
        for i, positive in word[unknown + 1:]:
            g = images[i]
            v = table[v][g if positive else inverse[g]]
        x, positive = word[unknown]
        forced = table[v][u]  # x^±1 = (v u)^-1
        images[x] = inverse[forced] if positive else forced
        trail.append(x)
        return True

    def propagate(start: int) -> bool:
        pos = start
        while pos < len(trail):
            if not all(map(settle, containing[trail[pos]])):
                return False
            pos += 1
        return True

    def retract(mark: int) -> None:
        while len(trail) > mark:
            images[trail.pop()] = None

    def choices(i: int) -> range:
        nonlocal deepest
        deepest = max(deepest, i + 1)
        return range(group.order)

    def assign(i: int, g: int) -> bool:
        images[i] = g
        trail.append(i)
        return propagate(len(trail) - 1)

    def exceeded(spent: int) -> str:
        return (f"hom enumeration exceeded budget {budget} after {spent} "
                f"branch guesses, reaching generator {deepest} of {k} "
                f"({len(homs)} homomorphisms found)")

    homs: List[tuple] = []
    deepest = 0
    # relations of one generator (or none) settle before any guess
    if all(settle(word) for word in words) and propagate(0):
        for _ in depth_first(
            k, lambda i: images.index(None, i) if None in images else k,
            choices, assign, trail, retract, budget, exceeded,
        ):
            homs.append(tuple(images))
    return homs


def hom_conjugacy_classes(homs: Sequence[tuple], group: FiniteGroup) -> tuple:
    """Partition generator-image tuples under simultaneous conjugation."""
    hom_set = set(homs)

    def orbit(seed: tuple) -> set:
        conjugates = {
            tuple(group.conjugate(g, image) for image in seed)
            for g in group.elements()
        }
        if not conjugates <= hom_set:
            raise ValidationError(
                "conjugate of a homomorphism is missing from the input"
            )
        return conjugates

    return _orbits(hom_set, orbit)


class GroupAction:
    """Left action of a group on a finite labeled fiber; the action law
    is checked on generators, with a full scan to name a failure."""

    __slots__ = ("group", "fiber", "table", "_index")

    def __init__(self, group: FiniteGroup, fiber: Sequence, table: Sequence[Sequence[int]]):
        fiber = tuple(fiber)
        size = len(fiber)
        if len(table) != group.order or any(len(r) != size for r in table):
            raise ValidationError("action table has wrong shape")
        for f in range(size):
            if table[0][f] != f:
                raise ValidationError("identity does not act trivially")
        for g in group.elements():
            if sorted(table[g]) != list(range(size)):
                raise ValidationError(f"element {g} does not act bijectively")
        if not _law_on_generators(group.table, table):
            elements = group.elements()
            g, h, f = _least_failure(
                lambda g, h, f: table[g][table[h][f]] == table[group.mul(g, h)][f],
                elements, elements, range(size),
            )
            raise ValidationError(
                f"action incompatible with multiplication at "
                f"({g}, {h}, {fiber[f]!r})"
            )
        self.group = group
        self.fiber = fiber
        self.table = tuple(tuple(r) for r in table)
        self._index = {label: i for i, label in enumerate(fiber)}

    def act(self, g: int, label):
        return self.fiber[self.table[g][self._index[label]]]

    def orbits(self) -> tuple:
        return self.orbits_under(self.group.elements())

    def orbits_under(self, elements: Iterable[int]) -> tuple:
        """Orbits of the subgroup generated by the given elements."""
        gens = set(elements)
        closure = {0}
        frontier = [0]
        while frontier:
            g = frontier.pop()
            for h in gens:
                for nxt in (self.group.mul(g, h), self.group.mul(h, g)):
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
        return _orbits(self.fiber, lambda seed: {
            self.act(g, seed) for g in closure
        })


def regular_action(group: FiniteGroup) -> GroupAction:
    """The group acting on itself by left translation."""
    return GroupAction(
        group,
        tuple(group.elements()),
        [[group.mul(g, f) for f in group.elements()] for g in group.elements()],
    )


class CrossedModule:
    """Group homomorphism base <- fiber with a compatible base action.

    ``boundary`` maps fiber elements to base elements; ``action`` is a
    base-indexed table of fiber automorphisms.  A module from outside
    passes :func:`validate_crossed_module`, which decides each axiom on
    generators; the library's makers build modules valid by construction.
    """

    __slots__ = ("base", "fiber", "boundary", "action")

    def __init__(self, base, fiber, boundary, action):
        self.base = base
        self.fiber = fiber
        self.boundary = tuple(boundary)
        self.action = tuple(tuple(r) for r in action)

    def act(self, g: int, h: int) -> int:
        return self.action[g][h]

    def __repr__(self):
        return (
            f"CrossedModule(base order {self.base.order}, "
            f"fiber order {self.fiber.order})"
        )


def validate_crossed_module(
    base: FiniteGroup,
    fiber: FiniteGroup,
    boundary: Sequence[int],
    action: Sequence[Sequence[int]],
) -> CrossedModule:
    """Check the crossed-module axioms, naming the first violated one.

    In order: the boundary is a homomorphism and each action row an
    automorphism (on generators of the fiber), the base identity acts
    trivially, the action is functorial (on generators of the base), and
    equivariance and the Peiffer identity hold (on generators of both).
    Given the axioms before it, the elements where one holds are closed
    under products; a failure is named by its least witness in full.
    """
    if len(boundary) != fiber.order:
        raise ValidationError("boundary has wrong length")
    if any(not (0 <= g < base.order) for g in boundary):
        raise ValidationError("boundary image out of range")
    if len(action) != base.order or any(len(r) != fiber.order for r in action):
        raise ValidationError("action table has wrong shape")
    G, H = base.elements(), fiber.elements()
    base_gens, fiber_gens = _generators(base.table), _generators(fiber.table)
    bmul, fmul = base.table, fiber.table

    def fail(holds, ranges, text, axiom, *prefix):
        witness = _least_failure(holds, *ranges)
        raise ValidationError(f"{text} at {witness}",
                              details={"axiom": axiom, "witness": prefix + witness})

    hom = lambda h1, h2: bmul[boundary[h1]][boundary[h2]] == boundary[fmul[h1][h2]]
    if not all(hom(h1, h2) for h1 in fiber_gens for h2 in H):
        fail(hom, (H, H), "boundary is not a homomorphism", "homomorphism")
    for g, row in enumerate(action):
        if sorted(row) != list(H):
            raise ValidationError(
                f"action of {g} is not a bijection",
                details={"axiom": "automorphism", "witness": (g,)},
            )
        mult = lambda h1, h2: row[fmul[h1][h2]] == fmul[row[h1]][row[h2]]
        if not all(mult(h1, h2) for h1 in fiber_gens for h2 in H):
            fail(mult, (H, H), f"action of {g} is not multiplicative",
                 "automorphism", g)
    for h in H:
        if action[0][h] != h:
            raise ValidationError(
                "identity of the base does not act trivially",
                details={"axiom": "automorphism", "witness": (0, h)},
            )
    if not _law_on_generators(bmul, action):
        fail(lambda g1, g2, h: action[g1][action[g2][h]] == action[bmul[g1][g2]][h],
             (G, G, H), "action is not functorial", "automorphism")
    equi = lambda g, h: boundary[action[g][h]] == base.conjugate(g, boundary[h])
    if not all(equi(g, h) for g in base_gens for h in fiber_gens):
        fail(equi, (G, H), "equivariance fails", "equivariance")
    peiffer = lambda h1, h2: action[boundary[h1]][h2] == fiber.conjugate(h1, h2)
    if not all(peiffer(h1, h2) for h1 in fiber_gens for h2 in fiber_gens):
        fail(peiffer, (H, H), "Peiffer identity fails", "peiffer")
    return CrossedModule(base, fiber, boundary, action)


def adjoint_crossed_module(group: FiniteGroup) -> CrossedModule:
    """base = fiber = group, identity boundary, conjugation action."""
    table, inverse = group.table, group.inverse
    return CrossedModule(group, group, group.elements(), [
        [table[gh][inverse[g]] for gh in table[g]] for g in group.elements()
    ])


def abelian_coefficients(fiber: FiniteGroup) -> CrossedModule:
    """Trivial base over an abelian fiber (plain cohomology coefficients)."""
    if not fiber.is_abelian:
        raise ValidationError("coefficient group must be abelian")
    return CrossedModule(trivial_group(), fiber, [0] * fiber.order,
                         [fiber.elements()])


def abelian_decomposition(group: FiniteGroup) -> Tuple[tuple, tuple]:
    """Invariant factors of an abelian group plus element coordinates.

    Presents the group on all of its elements with one relation
    a + b - ab per table entry; the quotient of Z^n by the relations is
    one :class:`~cechfib.homology.LatticeQuotient`.  Its torsion gives
    the cyclic factors, and the label of the unit vector e_g ends in g's
    coordinates inside their product, after one zero per unit factor.
    """
    if not group.is_abelian:
        raise ValidationError("group is not abelian")
    n = group.order
    relations = [{} for _ in range(n)]  # one column per relation a + b - ab
    for a in range(n):
        for b in range(n):
            j = a * n + b
            for g, v in ((a, 1), (b, 1), (group.mul(a, b), -1)):
                relations[g][j] = relations[g].get(j, 0) + v
    quotient = LatticeQuotient([], n, relations, n * n, 0)
    factors = quotient.group.torsion
    units = [[int(i == g) for i in range(n)] for g in range(n)]
    coords = tuple(label[n - len(factors):] for label in quotient.labels(units))
    return factors, coords
