"""Reference validators, kept to test the library's current versions
against.

Each scans every case in order, as the library did before it checked
maps in one pass, group, action and crossed-module laws on generators,
the carrier condition on maximal simplices, and nerves by vertex
incidence.  Each returns what the library's version builds or raises
the same ``ValidationError``.  The abelian decomposition by its own
Smith form, the three orbit loops and the chain-map signs by cycle
parity are kept from before the library read them off one lattice
quotient, one orbit partition and the parity of inversions.
``cocycle-equiv``'s runner is kept as it was when it compared every
second cover with the first as JSON text.
"""

from __future__ import annotations

import json

from cechfib import NerveComplex, ValidationError, are_equivalent, build_complex
from cechfib import io as docio
from cechfib.cocycles import validate_cocycle
from cechfib.complexes import intersect_complexes
from cechfib.snf import sparse_smith_form


def validate_group(table):
    """(table, inverse) of a group table, checking associativity on
    every triple."""
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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValidationError(
                        f"associativity fails at ({a}, {b}, {c})",
                        details={"triple": (a, b, c)},
                    )
    inverse = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == 0 and table[b][a] == 0:
                inverse[a] = b
                break
        if inverse[a] < 0:
            raise ValidationError(f"element {a} has no two-sided inverse",
                                  details={"element": a})
    return tuple(tuple(row) for row in table), tuple(inverse)


def check_action(group, fiber, table):
    """The action table, checking the action law on every triple."""
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
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            for f in range(size):
                if table[g][table[h][f]] != table[gh][f]:
                    raise ValidationError(
                        f"action incompatible with multiplication at "
                        f"({g}, {h}, {fiber[f]!r})"
                    )
    return tuple(tuple(r) for r in table)


def validate_crossed_module(base, fiber, boundary, action):
    """(boundary, action) of a crossed module, checking each axiom on
    every tuple of elements, in the library's order of axioms."""
    if len(boundary) != fiber.order:
        raise ValidationError("boundary has wrong length")
    if any(not (0 <= g < base.order) for g in boundary):
        raise ValidationError("boundary image out of range")
    if len(action) != base.order or any(len(r) != fiber.order for r in action):
        raise ValidationError("action table has wrong shape")

    for h1 in fiber.elements():
        for h2 in fiber.elements():
            lhs = base.mul(boundary[h1], boundary[h2])
            rhs = boundary[fiber.mul(h1, h2)]
            if lhs != rhs:
                raise ValidationError(
                    f"boundary is not a homomorphism at ({h1}, {h2})",
                    details={"axiom": "homomorphism", "witness": (h1, h2)},
                )
    for g in base.elements():
        row = action[g]
        if sorted(row) != list(range(fiber.order)):
            raise ValidationError(
                f"action of {g} is not a bijection",
                details={"axiom": "automorphism", "witness": (g,)},
            )
        for h1 in fiber.elements():
            for h2 in fiber.elements():
                if row[fiber.mul(h1, h2)] != fiber.mul(row[h1], row[h2]):
                    raise ValidationError(
                        f"action of {g} is not multiplicative at ({h1}, {h2})",
                        details={"axiom": "automorphism", "witness": (g, h1, h2)},
                    )
    for h in fiber.elements():
        if action[0][h] != h:
            raise ValidationError(
                "identity of the base does not act trivially",
                details={"axiom": "automorphism", "witness": (0, h)},
            )
    for g1 in base.elements():
        for g2 in base.elements():
            g12 = base.mul(g1, g2)
            for h in fiber.elements():
                if action[g1][action[g2][h]] != action[g12][h]:
                    raise ValidationError(
                        f"action is not functorial at ({g1}, {g2}, {h})",
                        details={"axiom": "automorphism", "witness": (g1, g2, h)},
                    )
    for g in base.elements():
        for h in fiber.elements():
            lhs = boundary[action[g][h]]
            rhs = base.conjugate(g, boundary[h])
            if lhs != rhs:
                raise ValidationError(
                    f"equivariance fails at ({g}, {h})",
                    details={"axiom": "equivariance", "witness": (g, h)},
                )
    for h1 in fiber.elements():
        for h2 in fiber.elements():
            lhs = action[boundary[h1]][h2]
            rhs = fiber.conjugate(h1, h2)
            if lhs != rhs:
                raise ValidationError(
                    f"Peiffer identity fails at ({h1}, {h2})",
                    details={"axiom": "peiffer", "witness": (h1, h2)},
                )
    return tuple(boundary), tuple(tuple(r) for r in action)


def check_map(source, target, vertex_map):
    """The vertex map as a dict, checking missing vertices, then vertex
    images, then every maximal simplex's image."""
    vm = dict(vertex_map)
    missing = [v for v in source.vertices if v not in vm]
    if missing:
        raise ValidationError(
            f"vertex map misses source vertices {missing[:4]!r}"
        )
    for v in source.vertices:
        if not target.has_simplex([vm[v]]):
            raise ValidationError(
                f"image {vm[v]!r} of vertex {v!r} is not a target vertex"
            )
    for s in source.maximal_simplices:
        image = frozenset(vm[v] for v in s)
        if not target.has_simplex(image):
            raise ValidationError(
                f"image of simplex {tuple(sorted(s))!r} is not a simplex",
                details={"simplex": tuple(sorted(s))},
            )
    return vm


def carrier_check(cover) -> bool:
    """Whether every maximal base simplex lies in some part, asking each
    part in turn."""
    for s in cover.base.maximal_simplices:
        if not any(part.has_simplex(s) for part in cover.parts.values()):
            return False
    return True


def cech_nerve(cover):
    """A fresh nerve of the cover, testing each running intersection
    against every later part, depth first in index order."""
    witnesses = {}
    for pos, idx in enumerate(cover.indices):
        part = cover.parts[idx]
        if part.is_empty():
            continue
        witnesses[(idx,)] = part
        _extend(cover, witnesses, (idx,), part, pos + 1)
    if not witnesses:
        raise ValidationError("every part of the cover is empty")
    maximal = [set(key) for key in witnesses]
    return NerveComplex(complex=build_complex(maximal), witnesses=witnesses)


def _extend(cover, witnesses, prefix, met, start):
    order = cover.indices
    for pos in range(start, len(order)):
        idx = order[pos]
        part = cover.parts[idx]
        if met.simplices.isdisjoint(part.simplices):
            continue
        inter = intersect_complexes(met, part)
        key = prefix + (idx,)
        witnesses[key] = inter
        _extend(cover, witnesses, key, inter, pos + 1)


def abelian_decomposition(group):
    """Invariant factors and element coordinates from one Smith form of
    the relations a + b - ab, with its left transform."""
    if not group.is_abelian:
        raise ValidationError("group is not abelian")
    n = group.order
    matrix = [{} for _ in range(n)]
    for a in range(n):
        for b in range(n):
            j = a * n + b
            for g, v in ((a, 1), (b, 1), (group.mul(a, b), -1)):
                matrix[g][j] = matrix[g].get(j, 0) + v
    form = sparse_smith_form(
        matrix, (n, n * n), want_left=True
    )
    keep = [i for i, d in enumerate(form.diagonal) if d != 1]
    factors = tuple(form.diagonal[i] for i in keep)
    if any(d == 0 for d in factors):
        raise ValidationError("abelian decomposition produced a free factor")
    coords = []
    for g in range(n):
        full = [form.left[i].get(g, 0) for i in range(n)]
        coords.append(tuple(full[i] % form.diagonal[i] for i in keep))
    return factors, tuple(coords)


def conjugacy_classes(group):
    remaining = set(group.elements())
    classes = []
    while remaining:
        seed = min(remaining)
        orbit = {group.conjugate(g, seed) for g in group.elements()}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(sorted(classes))


def hom_conjugacy_classes(homs, group):
    hom_set = set(homs)
    remaining = set(homs)
    classes = []
    while remaining:
        seed = min(remaining)
        orbit = set()
        for g in group.elements():
            conjugated = tuple(group.conjugate(g, image) for image in seed)
            if conjugated not in hom_set:
                raise ValidationError(
                    "conjugate of a homomorphism is missing from the input"
                )
            orbit.add(conjugated)
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(sorted(classes))


def orbits_under(action, elements):
    """Orbits of the subgroup generated by ``elements`` on the fiber."""
    gens = set(elements)
    closure = {0}
    frontier = [0]
    while frontier:
        g = frontier.pop()
        for h in gens:
            for nxt in (action.group.mul(g, h), action.group.mul(h, g)):
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
    remaining = set(action.fiber)
    out = []
    while remaining:
        seed = min(remaining)
        orbit = {action.act(g, seed) for g in closure}
        out.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(sorted(out))


def permutation_sign(perm):
    """The sign of a permutation of 0..n-1, from its even cycles."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def simplicial_chain_map(f, max_degree):
    """Chain map matrices in the sorted bases, each sign the sign of the
    permutation that sorts the image."""
    mats = []
    for k in range(max_degree + 1):
        tgt_index = {s: i for i, s in enumerate(f.target.simplices_of_dim(k))}
        mat = [{} for _ in tgt_index]
        for j, s in enumerate(f.source.simplices_of_dim(k)):
            image = [f(v) for v in s]
            if len(set(image)) != len(image):
                continue
            order = sorted(range(len(image)), key=lambda i: image[i])
            mat[tgt_index[tuple(sorted(image))]][j] = permutation_sign(order)
        mats.append(mat)
    return mats


def same_json(a, b) -> bool:
    """Equal as JSON text; Python's ``==`` would also match 1 with 1.0
    or true, which a document may not use interchangeably."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def run_cocycle_equiv(docs, args) -> tuple:
    """``cocycle-equiv``'s runner, parsing the second cover unless it is
    equal to the first as JSON text."""
    d1, d2 = docs
    c1 = docio.cocycle_from_doc(d1)
    docio.require_keys(d2, "cocycle", ("cover", "group", "values"))
    cover = c1.cover
    if not same_json(d2["cover"], d1["cover"]):
        other = docio.cover_from_doc(d2["cover"])
        if other != cover:
            cover = other
    group = (c1.group if same_json(d2["group"], d1["group"])
             else docio.group_from_doc(d2["group"]))
    c2 = validate_cocycle(cover, group, docio.cocycle_values_from_doc(d2["values"]))
    result = are_equivalent(c1, c2, budget=args.budget)
    details = {}
    if result.equivalent:
        details["bridge"] = {
            "|".join(map(str, key)): value
            for key, value in sorted(result.bridge.items())
        }
    return result.equivalent, details
