"""Independent models of the benchmark's inputs and answers.

Everything here is written from the definitions, without importing
cechfib, so that the answers it predicts are oracles for the program's
reports and not copies of them.  Complexes are lists of maximal simplices
over string labels; groups are multiplication tables with identity 0.
"""

from __future__ import annotations

import itertools
from collections import deque


# ---------------------------------------------------------------- groups

class Group:
    """A finite group as a multiplication table with identity 0."""

    def __init__(self, name, table):
        self.name = name
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.inverse = [
            next(b for b in range(self.order) if self.table[a][b] == 0)
            for a in range(self.order)
        ]

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, x):
        return self.table[self.table[g][x]][self.inverse[g]]

    def doc(self):
        return {"order": self.order, "table": [list(r) for r in self.table]}


def cyclic(n):
    return Group(f"z{n}", [[(a + b) % n for b in range(n)] for a in range(n)])


def product(g, h):
    m = h.order
    table = [
        [g.mul(a1, b1) * m + h.mul(a2, b2)
         for b1 in range(g.order) for b2 in range(m)]
        for a1 in range(g.order) for a2 in range(m)
    ]
    return Group(f"{g.name}x{h.name}", table)


def symmetric(n):
    ident = tuple(range(n))
    perms = [ident] + [p for p in itertools.permutations(range(n)) if p != ident]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    return Group(f"s{n}", table)


def standard_groups():
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    s3 = symmetric(3)
    groups = [z2, s3, product(z2, z2), z4, product(z2, z4), product(z3, z3),
              product(z2, s3), symmetric(4), z3]
    return {g.name: g for g in groups}


def orbit_count(group, items, act):
    """Orbits of the conjugation action ``act(g, item)`` on ``items``."""
    remaining = set(items)
    count = 0
    while remaining:
        seed = min(remaining)
        remaining -= {act(g, seed) for g in range(group.order)}
        count += 1
    return count


def conjugacy_class_count(group):
    return orbit_count(group, range(group.order), group.conj)


def commuting_pairs(group):
    return [(a, b) for a in range(group.order) for b in range(group.order)
            if group.mul(a, b) == group.mul(b, a)]


def involutions(group):
    """Elements with g*g = 1, the identity included."""
    return [g for g in range(group.order) if group.mul(g, g) == 0]


def hom_class_count(surface, group):
    """Conjugacy classes of homomorphisms from the surface's pi1 to G."""
    if surface == "circle":
        return conjugacy_class_count(group)
    if surface == "sphere":
        return 1
    if surface == "rp2":
        return orbit_count(group, involutions(group), group.conj)
    if surface == "torus":
        return orbit_count(
            group, commuting_pairs(group),
            lambda g, p: (group.conj(g, p[0]), group.conj(g, p[1])),
        )
    raise ValueError(surface)


def hom_count(surface, group):
    if surface == "torus":
        return len(commuting_pairs(group))
    if surface == "rp2":
        return len(involutions(group))
    raise ValueError(surface)


def generated_subgroup(group, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        g = frontier.pop()
        for h in gens:
            x = group.mul(g, h)
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


# ------------------------------------------------------------- complexes

def torus_seven(labels):
    """7-vertex torus: every pair of vertices spans an edge."""
    tris = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    tris += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return [tuple(sorted(labels[i] for i in t)) for t in tris]


def rp2_six(labels):
    tris = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    return [tuple(sorted(labels[i] for i in t)) for t in tris]


def hollow_triangle(labels):
    a, b, c = labels[:3]
    return [tuple(sorted(p)) for p in ((a, b), (b, c), (a, c))]


def boundary_tetrahedron(labels):
    return [tuple(sorted(t)) for t in itertools.combinations(labels[:4], 3)]


def full_tetrahedron(labels):
    return [tuple(sorted(labels[:4]))]


# Betti numbers and torsion through degree 2, from the classification of
# surfaces (hollow triangle = circle, boundary of the 3-simplex = sphere).
SURFACE_HOMOLOGY = {
    "circle": ([1, 1, 0], [[], [], []]),
    "rp2": ([1, 0, 0], [[], [2], []]),
    "sphere": ([1, 0, 1], [[], [], []]),
    "torus": ([1, 2, 1], [[], [], []]),
}

SURFACE_F_VECTOR = {"torus": (7, 21, 14), "rp2": (6, 15, 10)}


def closure(maximal):
    out = set()
    for s in maximal:
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return out


def subdivided_f_vector(fv):
    """f-vector of the barycentric subdivision of a 2-complex."""
    v, e, f = fv
    return (v + e + f, 2 * e + 6 * f, 6 * f)


def euler_characteristic(maximal):
    return sum((-1) ** (len(s) - 1) for s in closure(maximal))


def component_count(maximal):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in maximal:
        for v in s:
            parent.setdefault(v, v)
        for u, v in zip(s, s[1:]):
            parent[find(u)] = find(v)
    return len({find(v) for v in parent})


def maximal_chains(maximal):
    """Complete flags of the maximal simplices, smallest face first."""
    chains = []
    for s in maximal:
        for order in itertools.permutations(s):
            chains.append(tuple(tuple(sorted(order[:k]))
                                for k in range(1, len(s) + 1)))
    return chains


def subdivide(maximal, prefix):
    """Barycentric subdivision with compact labels ``prefix`` + index."""
    faces = sorted(closure(maximal), key=lambda f: (len(f), f))
    name = {f: f"{prefix}{i:05d}" for i, f in enumerate(faces)}
    return [tuple(sorted(name[f] for f in chain))
            for chain in maximal_chains(maximal)]


def complex_doc(maximal):
    return {"maximal": [list(s) for s in maximal]}


def star_cover_doc(maximal):
    """Vertex stars over the subdivision, parts named by the vertices."""
    label = "+".join
    chains = maximal_chains(maximal)
    vertices = sorted({v for s in maximal for v in s})
    return {
        "base": {"maximal": [[label(f) for f in c] for c in chains]},
        "parts": {
            v: {"maximal": [[label(f) for f in c] for c in chains
                            if c[0] == (v,)]}
            for v in vertices
        },
    }


def star_witness_sizes(maximal):
    """Simplex count of every multiple intersection of a star cover.

    The intersection of the stars of the vertices of a simplex s holds
    the chains whose smallest face contains s.
    """
    chains = set()
    for c in maximal_chains(maximal):
        for k in range(1, len(c) + 1):
            chains.update(itertools.combinations(c, k))
    sizes = {}
    for c in chains:
        bottom = c[0]
        for k in range(1, len(bottom) + 1):
            for s in itertools.combinations(bottom, k):
                sizes[s] = sizes.get(s, 0) + 1
    return {"|".join(s): n for s, n in sizes.items()}


# ---------------------------------------------------------------- cocycles

class FlatConnections:
    """Cocycles on a complex that are the identity on a spanning tree.

    Tree-gauge cocycles correspond one to one with homomorphisms from
    the fundamental group, and two are equivalent exactly when one
    conjugate of the other.  They are found by propagating the cocycle
    law through the triangles from the tree.
    """

    def __init__(self, maximal, group):
        self.group = group
        simplices = closure(maximal)
        self.vertices = sorted(s[0] for s in simplices if len(s) == 1)
        self.edges = sorted(s for s in simplices if len(s) == 2)
        self.triangles = sorted(s for s in simplices if len(s) == 3)
        adjacency = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        self.tree = set()
        seen = {self.vertices[0]}
        queue = deque([self.vertices[0]])
        while queue:
            v = queue.popleft()
            for w in sorted(adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    self.tree.add(tuple(sorted((v, w))))
                    queue.append(w)
        self.by_edge = {e: [] for e in self.edges}
        for t in self.triangles:
            a, b, c = t
            for e in ((a, b), (b, c), (a, c)):
                self.by_edge[e].append(t)

    def _propagate(self, value, changed):
        g = self.group
        queue = list(changed)
        while queue:
            edge = queue.pop()
            for a, b, c in self.by_edge[edge]:
                ab, bc, ac = value[(a, b)], value[(b, c)], value[(a, c)]
                known = (ab is not None) + (bc is not None) + (ac is not None)
                if known == 3:
                    if g.mul(ab, bc) != ac:
                        return False
                elif known == 2:
                    if ac is None:
                        value[(a, c)] = g.mul(ab, bc)
                        queue.append((a, c))
                    elif bc is None:
                        value[(b, c)] = g.mul(g.inv(ab), ac)
                        queue.append((b, c))
                    else:
                        value[(a, b)] = g.mul(ac, g.inv(bc))
                        queue.append((a, b))
        return True

    def solutions(self):
        start = {e: (0 if e in self.tree else None) for e in self.edges}
        if not self._propagate(start, sorted(self.tree)):
            return []
        out = []

        def search(value):
            free = next((e for e in self.edges if value[e] is None), None)
            if free is None:
                out.append(tuple(value[e] for e in self.edges))
                return
            for x in range(self.group.order):
                trial = dict(value)
                trial[free] = x
                if self._propagate(trial, [free]):
                    search(trial)

        search(start)
        return sorted(out)

    def conjugate(self, solution, h):
        return tuple(self.group.conj(h, x) for x in solution)

    def class_key(self, solution):
        return min(self.conjugate(solution, h) for h in range(self.group.order))

    def twist(self, solution, gauge):
        """lam_a * g_ab * lam_b^-1 for a gauge indexed like the vertices."""
        g = self.group
        lam = dict(zip(self.vertices, gauge))
        return tuple(
            g.mul(g.mul(lam[a], x), g.inv(lam[b]))
            for (a, b), x in zip(self.edges, solution)
        )

    def image_order(self, solution):
        return len(generated_subgroup(self.group, set(solution)))

    def values_doc(self, solution):
        return {f"{a}|{b}": x for (a, b), x in zip(self.edges, solution)}


def cocycle_doc(cover, group, conn, solution):
    return {"cover": cover, "group": group.doc(),
            "values": conn.values_doc(solution)}


# ----------------------------------------------------------------- bundles

def total_space(maximal, group, conn, solution):
    """Total maximal simplices of the quotient bundle, regular action.

    The lift of a simplex through fiber point f at its last vertex puts
    value(alpha, last) * f over each vertex alpha.
    """
    g = group
    value = dict(zip(conn.edges, solution))

    def edge_value(a, b):
        return 0 if a == b else value[(a, b)]

    out = []
    for s in maximal:
        last = s[-1]
        for f in range(g.order):
            out.append(tuple(sorted(
                f"{a}|{g.mul(edge_value(a, last), f)}" for a in s)))
    return out


def bundle_doc(maximal, group, conn, solution):
    total = total_space(maximal, group, conn, solution)
    fiber = [str(f) for f in range(group.order)]
    vertices = sorted({v for s in total for v in s})
    return {
        "total": complex_doc(total),
        "base": complex_doc(maximal),
        "projection": {v: v.rsplit("|", 1)[0] for v in vertices},
        "fiber": fiber,
        "action": {"fiber": fiber, "table": group.doc()["table"]},
        "group": group.doc(),
    }, total


def bundle_invariants(group_order, base_maximal, image_order):
    """What every total space over a connected base must satisfy."""
    return {
        "vertices": group_order * len({v for s in base_maximal for v in s}),
        "euler": group_order * euler_characteristic(base_maximal),
        "components": group_order // image_order,
    }


def measured_bundle_invariants(total_maximal):
    return {
        "vertices": len({v for s in total_maximal for v in s}),
        "euler": euler_characteristic(total_maximal),
        "components": component_count(total_maximal),
    }
