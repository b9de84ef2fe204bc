"""The three workloads: seeded documents, jobs, and the answer each job owes.

A job is one ``cechfib.cli.main`` call on documents written during set-up,
or one public-API call where no CLI verb exists.  Every job carries a
check built from ``model`` (never from the program's own output).  Job
names are the same for every seed, so the cost mix of a workload does
not depend on the seed; the seed picks labels, gauges, monodromy
representatives and pairings.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

import model as M


@dataclass
class Job:
    name: str
    tag: str
    check: Callable            # result -> error message or None
    argv: Optional[list] = None
    out: Optional[Path] = None
    expect: int = 0
    api: Optional[Callable] = None   # cechfib package -> JSON-able result

    def execute(self, cf):
        if self.api is not None:
            return self.api(cf)
        try:
            return cf.cli.main(self.argv)
        except SystemExit as exc:      # argparse rejects the argv
            return exc.code


@dataclass
class Workload:
    jobs: List[Job]
    pass_check: Optional[Callable] = None   # {name: result} -> {name: error}


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return path


def _cli(d: Path, name, tag, verb, inputs, check, expect=0, extra=()):
    out = d / f"{name}.report.json"
    argv = [verb, "--input", *map(str, inputs), "--output", str(out), *extra]
    return Job(name=name, tag=tag, check=check, argv=argv, out=out,
               expect=expect)


def _mismatch(label, got, want):
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def _first(*errors):
    return next((e for e in errors if e), None)


def _sorted_maximal(maximal):
    return sorted(sorted(s) for s in maximal)


# ------------------------------------------------------------------ refine

def _homology_check(surface):
    betti, torsion = M.SURFACE_HOMOLOGY[surface]
    return lambda r: _first(
        _mismatch("betti", r["details"]["betti"], betti),
        _mismatch("torsion", r["details"]["torsion"], torsion),
    )


def _validate_check(f_vector):
    def check(r):
        d = r["details"]
        return _first(
            _mismatch("verdict", r["verdict"], True),
            _mismatch("vertices", d["vertices"], f_vector[0]),
            _mismatch("dim", d["dim"], len(f_vector) - 1),
            _mismatch("simplexCounts", d["simplexCounts"], list(f_vector)),
        )
    return check


def _fidelity_job(name, tag, surface, maximal):
    doc = M.complex_doc(maximal)

    def run(cf):
        x = cf.io.complex_from_doc(doc)
        cover = cf.star_cover(x)
        nerve = cf.cech_nerve(cover)
        summary = {}
        for key, cx in (("base", cover.base), ("nerve", nerve.complex)):
            h = cf.homology(cx, 2)
            summary[key] = [list(h.betti_numbers()),
                            [list(t) for t in h.torsion()]]
        section = cf.section_map(cover, nerve)
        summary["isomorphism"] = cf.map_induces_homology_isomorphism(section, 2)
        summary["nerve_maximal"] = cf.io.complex_to_doc(nerve.complex)["maximal"]
        return summary

    want = list(M.SURFACE_HOMOLOGY[surface])

    def check(r):
        return _first(
            _mismatch("base homology", r["base"], want),
            _mismatch("nerve homology", r["nerve"], want),
            _mismatch("section is a homology isomorphism", r["isomorphism"], True),
            _mismatch("nerve", r["nerve_maximal"], _sorted_maximal(maximal)),
        )

    return Job(name=name, tag=tag, check=check, api=run)


def refine(seed, d: Path, groups) -> Workload:
    """Few, large complexes: the 7-vertex torus and 6-vertex RP^2 at
    0 to 3 barycentric subdivisions, plus their star covers."""
    rng = random.Random(seed)
    jobs = []
    for surface, make_complex, n in (("torus", M.torus_seven, 7),
                                ("rp2", M.rp2_six, 6)):
        labels = [f"v{i}" for i in range(n)]
        rng.shuffle(labels)
        rungs = [make_complex(labels)]
        for k in range(1, 4):
            rungs.append(M.subdivide(rungs[-1], f"r{k}."))
        f_vector = M.SURFACE_F_VECTOR[surface]
        for k, cx in enumerate(rungs):
            path = _write(d / f"{surface}-r{k}.json", M.complex_doc(cx))
            tag = f"{surface}.r{k}"
            jobs.append(_cli(d, f"{surface}-r{k}-validate", tag,
                             "validate-complex", [path],
                             _validate_check(f_vector)))
            jobs.append(_cli(d, f"{surface}-r{k}-homology", tag, "homology",
                             [path], _homology_check(surface)))
            f_vector = M.subdivided_f_vector(f_vector)

        cover_path = _write(d / f"{surface}-r1-cover.json",
                            M.star_cover_doc(rungs[1]))
        nerve_want = _sorted_maximal(rungs[1])
        sizes_want = M.star_witness_sizes(rungs[1])
        jobs.append(_cli(
            d, f"{surface}-r1-nerve", f"{surface}.cover", "nerve", [cover_path],
            lambda r, nw=nerve_want, sw=sizes_want: _first(
                _mismatch("nerve", r["details"]["nerve"]["maximal"], nw),
                _mismatch("witness sizes", r["details"]["witnessSizes"], sw),
            )))
        jobs.append(_cli(
            d, f"{surface}-r1-cover-check", f"{surface}.cover", "cover-check",
            [cover_path],
            lambda r: _mismatch("details", r["details"],
                                {"good": True, "carrier": True,
                                 "failures": []})))
        jobs.append(_fidelity_job(f"{surface}-r0-fidelity", f"{surface}.cover",
                                  surface, rungs[0]))
    return Workload(jobs=jobs)


# ---------------------------------------------------------------- classify

CLASSIFY_SURFACES = {
    "circle": M.hollow_triangle(["a", "b", "c"]),
    "rp2": M.rp2_six([f"p{i}" for i in range(6)]),
    "sphere": M.boundary_tetrahedron([f"s{i}" for i in range(4)]),
    "torus": M.torus_seven([f"t{i}" for i in range(7)]),
}
CLASSIFY_GROUPS = ("z2", "s3", "z2xz2", "z4")
# No usage data exists, so every case gets the same number of seeded
# pairs: RP^2 and the torus, under every group, get this many
# gauge-twisted pairs and this many pairs of different classes (112
# pairs, half of each kind; 6 would give fewer than 100).  The sphere has
# one class only.  The circle has no triangle, so no cocycle law binds a
# pair there, and a pair takes under 10 ms; with circle pairs the median
# sat on the edge between them and the RP^2 pairs and moved three times
# as much as run_s between seeds (see NOTES.md).
PAIRS_PER_CASE = 7


def _check_job(d, name, cover, group, conn, sols, rng, broken):
    """cocycle-check on a gauge-twisted cocycle, or on one whose value on
    an edge of a triangle was changed (which breaks the law there)."""
    values = list(conn.twist(rng.choice(sols),
                             [rng.randrange(group.order) for _ in conn.vertices]))
    if broken:
        name += "-broken"
        edge = rng.choice([e for e in conn.edges if conn.by_edge[e]])
        i = conn.edges.index(edge)
        values[i] = group.mul(values[i], rng.randrange(1, group.order))
        check = lambda r: _first(
            _mismatch("verdict", r["verdict"], False),
            None if "cocycle law fails" in r["details"].get("error", "")
            else f"unexpected error {r['details']!r}")
    else:
        name += "-valid"
        check = lambda r: _first(
            _mismatch("verdict", r["verdict"], True),
            _mismatch("pairs", r["details"].get("pairs"), len(conn.edges)))
    path = _write(d / f"{name}.json", M.cocycle_doc(cover, group, conn, values))
    return _cli(d, name, "cocycle-check", "cocycle-check", [path], check,
                expect=1 if broken else 0)


def _bridge_check(maximal, group, conn, v1, v2):
    """The joined cocycle law on every triangle of the joined nerve.

    Stars of vertices meet exactly when the vertices span a simplex, so
    the bridge must name every pair (a, b) inside a simplex and satisfy
    c1(a, a') * beta(a', b) = beta(a, b) and
    beta(a, b) * c2(b, b') = beta(a, b').
    """
    c1 = dict(zip(conn.edges, v1))
    c2 = dict(zip(conn.edges, v2))
    together = {}
    for s in maximal:
        for a in s:
            together.setdefault(a, set()).update(s)
    wanted = {f"{a}|{b}" for a in together for b in together[a]}

    def check(r):
        bridge = r["details"].get("bridge")
        if bridge is None or set(bridge) != wanted:
            return "bridge does not name every overlapping pair"
        beta = {tuple(k.split("|")): v for k, v in bridge.items()}
        for s in maximal:
            for a, a2 in itertools.combinations(s, 2):
                for b in s:
                    if group.mul(c1[(a, a2)], beta[(a2, b)]) != beta[(a, b)]:
                        return f"bridge breaks the law at {(a, a2, b)}"
                    if group.mul(beta[(b, a)], c2[(a, a2)]) != beta[(b, a2)]:
                        return f"bridge breaks the law at {(b, a, a2)}"
        return None

    return check


def classify(seed, d: Path, groups) -> Workload:
    """Many tiny complexes: classification, cocycle equivalence, checks."""
    rng = random.Random(seed)
    jobs = []
    covers, group_paths, conns = {}, {}, {}
    for surface, maximal in CLASSIFY_SURFACES.items():
        covers[surface] = M.star_cover_doc(maximal)
        _write(d / f"cover-{surface}.json", covers[surface])
    for g in CLASSIFY_GROUPS:
        group_paths[g] = _write(d / f"group-{g}.json", groups[g].doc())
    for surface, maximal in CLASSIFY_SURFACES.items():
        for g in CLASSIFY_GROUPS:
            conn = M.FlatConnections(maximal, groups[g])
            sols = conn.solutions()
            classes = {}
            for s in sols:
                classes.setdefault(conn.class_key(s), []).append(s)
            conns[surface, g] = (conn, sols, [classes[k] for k in sorted(classes)])
            want = M.hom_class_count(surface, groups[g])
            jobs.append(_cli(
                d, f"classify-{surface}-{g}", f"classify.{surface}", "classify",
                [d / f"cover-{surface}.json", group_paths[g]],
                lambda r, w=want: _first(
                    _mismatch("verdict", r["verdict"], True),
                    _mismatch("classes", r["details"]["classes"], w),
                    _mismatch("homClasses", r["details"]["homClasses"], w),
                    _mismatch("pullbacksMatch", r["details"]["pullbacksMatch"],
                              [True] * w),
                )))

    def gauge(surface, g):
        return [rng.randrange(groups[g].order)
                for _ in conns[surface, g][0].vertices]

    def doc(surface, g, values):
        conn = conns[surface, g][0]
        return M.cocycle_doc(covers[surface], groups[g], conn, values)

    slots = [(surface, equivalent, g)
             for surface in ("rp2", "torus")
             for g in CLASSIFY_GROUPS
             for equivalent in (True, False)
             for _ in range(PAIRS_PER_CASE)]
    for i, (surface, equivalent, g) in enumerate(slots):
        conn, sols, classes = conns[surface, g]
        if equivalent:
            s = rng.choice(sols)
            v1 = conn.twist(s, gauge(surface, g))
            v2 = conn.twist(conn.conjugate(s, rng.randrange(groups[g].order)),
                            gauge(surface, g))
            check = _bridge_check(CLASSIFY_SURFACES[surface], groups[g],
                                  conn, v1, v2)
            check = (lambda r, c=check: _mismatch("verdict", r["verdict"], True)
                     or c(r))
        else:
            k1, k2 = rng.sample(range(len(classes)), 2)
            v1 = conn.twist(rng.choice(classes[k1]), gauge(surface, g))
            v2 = conn.twist(rng.choice(classes[k2]), gauge(surface, g))
            check = lambda r: _first(_mismatch("verdict", r["verdict"], False),
                                     _mismatch("details", r["details"], {}))
        p1 = _write(d / f"pair{i:03d}-a.json", doc(surface, g, v1))
        p2 = _write(d / f"pair{i:03d}-b.json", doc(surface, g, v2))
        jobs.append(_cli(d, f"equiv-{i:03d}-{surface}-{g}", f"equiv.{surface}",
                         "cocycle-equiv", [p1, p2], check,
                         expect=0 if equivalent else 1))

    for surface, g in itertools.product(CLASSIFY_SURFACES, CLASSIFY_GROUPS):
        conn, sols, _ = conns[surface, g]
        for broken in (False, True) if conn.triangles else (False,):
            jobs.append(_check_job(d, f"check-{surface}-{g}", covers[surface],
                                   groups[g], conn, sols, rng, broken))
    return Workload(jobs=jobs)


# ------------------------------------------------------------------- fiber

FIBER_TORUS = M.torus_seven([f"t{i}" for i in range(7)])
FIBER_RP2 = M.rp2_six([f"p{i}" for i in range(6)])
HOM_GROUPS = ("z2", "s3", "z2xz2", "z4", "z2xz4", "z3xz3", "z2xs3")
# No usage data exists.  Gerbe jobs enumerate every Z2 witness
# assignment, Milnor points are one per case, and each bundle-isomorphism case
# (a base and group for twisted pairs, an ordered pair of holonomy image
# orders for non-isomorphic ones) gets this many seeded pairs.
ISO_PAIRS_PER_CASE = 3
Z2_COEFFICIENTS = {
    "baseGroup": {"order": 1, "table": [[0]]},
    "fiberGroup": {"order": 2, "table": [[0, 1], [1, 0]]},
    "boundary": [0, 0],
    "action": [[0, 1]],
}


def _homs_job(name, surface, maximal, group):
    doc, gdoc = M.complex_doc(maximal), group.doc()

    def run(cf):
        x = cf.io.complex_from_doc(doc)
        presentation = cf.pi1_presentation(x, x.vertices[0])
        homs = cf.enumerate_homs(presentation, cf.io.group_from_doc(gdoc))
        return {"generators": presentation.generator_count, "homs": len(homs)}

    simplices = M.closure(maximal)
    edges = sum(1 for s in simplices if len(s) == 2)
    vertices = sum(1 for s in simplices if len(s) == 1)
    want = {"generators": edges - vertices + 1,
            "homs": M.hom_count(surface, group)}
    return Job(name=name, tag="enumerate_homs", api=run,
               check=lambda r: _mismatch("homs", r, want))


def _bundle_report_check(base_maximal, group, image_order):
    want = M.bundle_invariants(group.order, base_maximal, image_order)

    def check(r):
        bundle = r["details"]["bundle"]
        return _first(
            _mismatch("verdict", r["verdict"], True),
            _mismatch("base", bundle["base"]["maximal"],
                      _sorted_maximal(base_maximal)),
            _mismatch("fiber", len(bundle["fiber"]), group.order),
            _mismatch("total", M.measured_bundle_invariants(
                bundle["total"]["maximal"]), want),
        )
    return check


def _iso_job(name, maximal, group, conn, s1, s2, isomorphic):
    d1, total1 = M.bundle_doc(maximal, group, conn, s1)
    d2, total2 = M.bundle_doc(maximal, group, conn, s2)

    def run(cf):
        found = cf.bundle_isomorphism(cf.io.bundle_from_doc(d1),
                                      cf.io.bundle_from_doc(d2))
        return None if found is None else sorted(found.items())

    simplices2 = {frozenset(s) for s in M.closure(total2)}

    def check(r):
        if r is None:
            return None if not isomorphic else "no isomorphism found"
        if not isomorphic:
            return "isomorphism claimed between non-isomorphic bundles"
        mapping = dict(r)
        for v, w in mapping.items():
            if v.rsplit("|", 1)[0] != w.rsplit("|", 1)[0]:
                return f"{v} -> {w} leaves its fiber"
        image = {frozenset(mapping[v] for v in s) for s in M.closure(total1)}
        return None if image == simplices2 else "mapping is not simplicial onto"

    return Job(name=name, tag="bundle_isomorphism", api=run, check=check)


def _patch_job(name, maximal, group, conn, solution):
    doc, total = M.bundle_doc(maximal, group, conn, solution)

    def run(cf):
        bundle = cf.io.bundle_from_doc(doc)
        cover = cf.closed_star_cover(bundle.base)
        parts = {idx: cf.restrict_bundle(bundle, cover.parts[idx])
                 for idx in cover.indices}
        glued = cf.patch_bundles(cover, parts)
        again = all(cf.restrict_bundle(glued, cover.parts[idx]).total
                    == parts[idx].total for idx in cover.indices)
        return {"glued": glued.total == bundle.total, "restrictions": again,
                "total_simplices": len(glued.total.simplices)}

    want = {"glued": True, "restrictions": True,
            "total_simplices": len(M.closure(total))}
    return Job(name=name, tag="restrict_patch", api=run,
               check=lambda r: _mismatch("patch", r, want))


def _gerbe_doc(cover, maximal, bits):
    triples = sorted(s for s in M.closure(maximal) if len(s) == 3)
    pairs = sorted(s for s in M.closure(maximal) if len(s) == 2)
    return {
        "cover": cover, "crossedModule": Z2_COEFFICIENTS,
        "values": {"|".join(p): 0 for p in pairs},
        "witnesses": {"|".join(t): b for t, b in zip(triples, bits)},
    }


def _milnor_doc(rng, group, valid, size):
    support = sorted(rng.sample(range(5), size))
    weights = {i: rng.randint(1, 9) for i in support}
    total = sum(weights.values())
    t = [str(Fraction(weights[i], total)) if i in weights else "0"
         for i in range(5)]
    x = {i: rng.randrange(group.order) for i in support}
    g = {(i, j): group.mul(x[i], group.inv(x[j]))
         for i in support for j in support}
    if not valid:
        i, j = rng.sample(support, 2)
        g[(i, j)] = group.mul(g[(i, j)], rng.randrange(1, group.order))
    doc = {"t": t, "g": {f"{i}|{j}": v for (i, j), v in g.items()},
           "group": group.doc()}
    return doc, support


def fiber(seed, d: Path, groups) -> Workload:
    """Searches and large constructions with almost no homology."""
    rng = random.Random(seed)
    jobs = []

    for g in HOM_GROUPS:
        jobs.append(_homs_job(f"homs-torus-{g}", "torus", FIBER_TORUS, groups[g]))
    jobs.append(_homs_job("homs-rp2-s4", "rp2", FIBER_RP2, groups["s4"]))

    for surface, base, g in (("torus", FIBER_TORUS, "s3"),
                             ("rp2", FIBER_RP2, "s4")):
        group = groups[g]
        sd1 = M.subdivide(base, "r1.")
        conn = M.FlatConnections(sd1, group)
        sols = conn.solutions()
        cover = M.star_cover_doc(sd1)
        s = rng.choice(sols)
        twisted = conn.twist(s, [rng.randrange(group.order)
                                 for _ in conn.vertices])
        path = _write(d / f"bundle-{surface}.json",
                      M.cocycle_doc(cover, group, conn, twisted))
        check = _bundle_report_check(sd1, group, conn.image_order(s))
        for mode in ("direct", "skeletal"):
            jobs.append(_cli(d, f"bundle-{surface}-{g}-{mode}",
                             f"bundle-build.{mode}", "bundle-build", [path],
                             check, extra=("--mode", mode)))
        s = rng.choice(sols)
        bdoc, _ = M.bundle_doc(sd1, group, conn, s)
        bpath = _write(d / f"pullback-{surface}-bundle.json", bdoc)
        source = [tuple(sorted("q" + v for v in t)) for t in sd1]
        vertex_map = {"q" + v: v for t in sd1 for v in t}
        mpath = _write(d / f"pullback-{surface}-map.json",
                       {"source": M.complex_doc(source),
                        "vertexMap": vertex_map})
        jobs.append(_cli(d, f"pullback-{surface}-{g}", "pullback", "pullback",
                         [bpath, mpath],
                         _bundle_report_check(source, group,
                                              conn.image_order(s))))

    small = {}
    for key, base, g in (("torus-s3", FIBER_TORUS, "s3"),
                         ("rp2-s4", FIBER_RP2, "s4"),
                         ("rp2-z2xz2", FIBER_RP2, "z2xz2"),
                         ("torus-z2xz2", FIBER_TORUS, "z2xz2"),
                         ("rp2-z4", FIBER_RP2, "z4"),
                         ("torus-z4", FIBER_TORUS, "z4")):
        conn = M.FlatConnections(base, groups[g])
        small[key] = (base, groups[g], conn, conn.solutions())
    for key in ("torus-s3", "rp2-s4"):
        base, group, conn, sols = small[key]
        jobs.append(_patch_job(f"patch-{key}", base, group, conn,
                               rng.choice(sols)))
    twisted_cases = ("torus-z2xz2", "rp2-z2xz2", "torus-z4", "rp2-z4")
    for i, key in enumerate(twisted_cases * ISO_PAIRS_PER_CASE):
        base, group, conn, sols = small[key]
        s = rng.choice(sols)
        twisted = conn.twist(conn.conjugate(s, rng.randrange(group.order)),
                             [rng.randrange(group.order) for _ in conn.vertices])
        jobs.append(_iso_job(f"iso-{i:02d}-{key}-twisted", base, group, conn,
                             s, twisted, True))
    base, group, conn, sols = small["torus-z2xz2"]
    by_image = {}
    for s in sols:
        by_image.setdefault(conn.image_order(s), []).append(s)
    apart_cases = list(itertools.permutations(sorted(by_image), 2))
    for i, (o1, o2) in enumerate(apart_cases * ISO_PAIRS_PER_CASE):
        jobs.append(_iso_job(f"iso-{i:02d}-torus-z2xz2-apart", base, group,
                             conn, rng.choice(by_image[o1]),
                             rng.choice(by_image[o2]), False))

    sphere = M.boundary_tetrahedron([f"g{i}" for i in range(4)])
    solid = M.full_tetrahedron([f"g{i}" for i in range(4)])
    sphere_cover = M.star_cover_doc(sphere)
    solid_cover = M.star_cover_doc(solid)
    # gerbe-check on every Z2 witness assignment over the solid
    # tetrahedron.  Its triples in sorted order are 012, 013, 023 and 123,
    # and the law c012 + c023 = c123 + c013 holds exactly when the bits
    # have even parity.
    assignments = list(itertools.product((0, 1), repeat=4))
    for bits in assignments:
        valid = sum(bits) % 2 == 0
        name = f"gerbe-check-{''.join(map(str, bits))}"
        path = _write(d / f"{name}.json", _gerbe_doc(solid_cover, solid, bits))
        if valid:
            check = lambda r: _first(
                _mismatch("verdict", r["verdict"], True),
                _mismatch("details", r["details"], {"pairs": 6, "witnesses": 4}))
        else:
            check = lambda r: _first(
                _mismatch("verdict", r["verdict"], False),
                None if "tetrahedron law fails" in r["details"].get("error", "")
                else f"unexpected error {r['details']!r}")
        jobs.append(_cli(d, name, "gerbe-check", "gerbe-check", [path], check,
                         expect=0 if valid else 1))

    parity = {}
    for i, bits in enumerate(rng.sample(assignments, len(assignments))):
        name = f"gerbe-class-{i:02d}"
        parity[name] = sum(bits) % 2
        path = _write(d / f"{name}.json", _gerbe_doc(sphere_cover, sphere, bits))
        jobs.append(_cli(d, name, "gerbe-class", "gerbe-class", [path],
                         lambda r: _mismatch(
                             "classCount", r["details"]["classCount"], 2)))
    gerbe_docs = [_gerbe_doc(sphere_cover, sphere, bits)
                  for bits in assignments]

    def partition(cf):
        data = [cf.io.gerbe_from_doc(doc) for doc in gerbe_docs]
        blocks = []
        for i, datum in enumerate(data):
            for block in blocks:
                if cf.gerbes_equivalent(data[block[0]], datum).equivalent:
                    block.append(i)
                    break
            else:
                blocks.append([i])
        return blocks

    def partition_check(blocks):
        sizes = sorted(len(b) for b in blocks)
        mixed = [b for b in blocks
                 if len({sum(assignments[i]) % 2 for i in b}) != 1]
        return _first(_mismatch("block sizes", sizes, [8, 8]),
                      "a block mixes classes" if mixed else None)

    jobs.append(Job(name="gerbes-partition", tag="gerbes_equivalent",
                    api=partition, check=partition_check))

    for g, degree in (("z2", 3), ("z3", 3), ("z4", 3), ("s3", 2)):
        n = groups[g].order
        if g == "s3":
            want = ([1, 0, 0], [[], [2], []])
        else:
            want = ([1] + [0] * degree,
                    [[] if k % 2 == 0 else [n] for k in range(degree + 1)])
        path = _write(d / f"bar-{g}.json", groups[g].doc())
        jobs.append(_cli(
            d, f"bar-{g}-{degree}", "bar-homology", "bar-homology", [path],
            lambda r, w=want: _mismatch(
                "homology", [r["details"]["betti"], r["details"]["torsion"]],
                list(w)),
            extra=("--max-degree", str(degree))))

    milnor_cases = itertools.product(("s3", "z4", "z2xz2"), (2, 3, 4),
                                     (True, False))
    for i, (g, size, valid) in enumerate(milnor_cases):
        mdoc, support = _milnor_doc(rng, groups[g], valid, size)
        path = _write(d / f"milnor-{i:02d}.json", mdoc)
        if valid:
            check = lambda r, s=support: _mismatch(
                "support", r["details"]["support"], s)
        else:
            check = lambda r: _first(
                _mismatch("verdict", r["verdict"], False),
                None if "[4]" in r["details"].get("error", "")
                else f"unexpected error {r['details']!r}")
        jobs.append(_cli(d, f"milnor-{i:02d}", "milnor-check", "milnor-check",
                         [path], check, expect=0 if valid else 1))

    def pass_check(results):
        labels = {}
        for name, bit in parity.items():
            report = results.get(name)
            if report is None:
                continue
            labels.setdefault(tuple(report["details"]["classLabel"]),
                              set()).add(bit)
        if len(labels) != 2 or any(len(bits) != 1 for bits in labels.values()):
            return {name: "class labels do not split by parity" for name in parity}
        return {}

    return Workload(jobs=jobs, pass_check=pass_check)


WORKLOADS = {"refine": refine, "classify": classify, "fiber": fiber}
