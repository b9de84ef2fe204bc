"""JSON interchange for every library value.

Vertex identifiers and cover part names are strings in documents; pair
and triple keys join index names with ``|``.  Loading rebuilds values
through the normal validators, so a malformed document fails the same
way a malformed in-memory value would.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Mapping

from .bundles import Bundle, validate_bundle
from .cocycles import validate_cocycle
from .complexes import SimplicialComplex, SimplicialMap, build_complex
from .covers import Cover
from .errors import ValidationError, _is_integer
from .gerbes import validate_gerbe_cocycle
from .groups import (
    CrossedModule,
    FiniteGroup,
    GroupAction,
    validate_crossed_module,
    validate_group,
)


def complex_to_doc(x: SimplicialComplex) -> dict:
    return {"maximal": sorted([str(v) for v in t] for t in x._top_sets())}


def complex_from_doc(doc: Mapping) -> SimplicialComplex:
    if not isinstance(doc, Mapping) or "maximal" not in doc:
        raise ValidationError('complex document needs a "maximal" list')
    maximal = doc["maximal"]
    if not isinstance(maximal, list) or not all(
        issubclass(t, list) for t in set(map(type, maximal))
    ) or not _all_labels(itertools.chain.from_iterable(maximal)):
        raise ValidationError(
            '"maximal" must be a list of lists of string or integer labels'
        )
    return build_complex(maximal)


def _all_labels(values) -> bool:
    """Whether every value is a string or an integer but not a bool,
    tested once per distinct type."""
    return all(issubclass(t, (str, int)) and t is not bool
               for t in set(map(type, values)))


def _integer(v, what: str) -> int:
    if not _is_integer(v):
        raise ValidationError(f"{what} must be an integer, got {v!r}")
    return v


def _integers(v, what: str) -> list:
    if not isinstance(v, list) or not all(_is_integer(x) for x in v):
        raise ValidationError(f"{what} must be a list of integers")
    return v


def _integer_rows(v, what: str) -> list:
    if not isinstance(v, list) or not all(
        isinstance(row, list) and all(_is_integer(x) for x in row) for row in v
    ):
        raise ValidationError(f"{what} must be a list of lists of integers")
    return v


def _labels(v, what: str) -> list:
    if not isinstance(v, list) or not _all_labels(v):
        raise ValidationError(
            f"{what} must be a list of string or integer labels"
        )
    return v


def _label_map(v, what: str) -> dict:
    if not isinstance(v, Mapping) or not _all_labels(v.values()):
        raise ValidationError(
            f"{what} must be an object of string or integer labels"
        )
    return dict(v)


def map_from_doc(doc: Mapping, source: SimplicialComplex,
                 target: SimplicialComplex) -> SimplicialMap:
    require_keys(doc, "map", ("vertexMap",))
    return SimplicialMap(
        source, target, _label_map(doc["vertexMap"], '"vertexMap"')
    )


def cover_to_doc(cover: Cover) -> dict:
    return {
        "base": complex_to_doc(cover.base),
        "parts": {
            str(idx): complex_to_doc(part) for idx, part in cover.parts.items()
        },
    }


def cover_from_doc(doc: Mapping) -> Cover:
    require_keys(doc, "cover", ("base", "parts"))
    if not isinstance(doc["parts"], Mapping):
        raise ValidationError('"parts" must be an object of complex documents')
    base = complex_from_doc(doc["base"])
    parts = {
        str(name): complex_from_doc(part)
        for name, part in doc["parts"].items()
    }
    return Cover(base, parts)


def group_to_doc(group: FiniteGroup) -> dict:
    return {"order": group.order, "table": [list(r) for r in group.table]}


def group_from_doc(doc: Mapping) -> FiniteGroup:
    require_keys(doc, "group", ("table",))
    table = _integer_rows(doc["table"], '"table"')
    if "order" in doc and _integer(doc["order"], '"order"') != len(table):
        raise ValidationError("declared order does not match the table")
    return validate_group(table)


def action_from_doc(doc: Mapping, group: FiniteGroup) -> GroupAction:
    require_keys(doc, "action", ("fiber", "table"))
    return GroupAction(
        group,
        [str(f) for f in _labels(doc["fiber"], 'action "fiber"')],
        _integer_rows(doc["table"], 'action "table"'),
    )


def action_to_doc(action: GroupAction) -> dict:
    return {
        "fiber": [str(f) for f in action.fiber],
        "table": [list(r) for r in action.table],
    }


def _pair_key(pair) -> str:
    return "|".join(str(x) for x in pair)


def _split_key(key: str, size: int) -> tuple:
    parts = tuple(key.split("|"))
    if len(parts) != size:
        raise ValidationError(f"key {key!r} does not name {size} indices")
    return parts


def _pair_values_to_doc(pairs, value) -> dict:
    """Each pair keyed in the string order of its labels, which is the
    order a reloaded cover (with string indices) uses, with
    ``value(a, b)`` for that order."""
    values = {}
    for a, b in pairs:
        if str(b) < str(a):
            a, b = b, a
        values[(str(a), str(b))] = value(a, b)
    return {_pair_key(pair): v for pair, v in sorted(values.items())}


def _keyed_integers(doc: Mapping, size: int, what: str) -> Dict[tuple, int]:
    if not isinstance(doc, Mapping):
        raise ValidationError(f'{what} must be an object with "|"-joined keys')
    return {
        _split_key(k, size): _integer(v, f"{what} at {k!r}")
        for k, v in doc.items()
    }


def cocycle_values_from_doc(doc: Mapping) -> Dict[tuple, int]:
    return _keyed_integers(doc, 2, '"values"')


def gerbe_witnesses_from_doc(doc: Mapping) -> Dict[tuple, int]:
    return _keyed_integers(doc, 3, '"witnesses"')


def require_keys(doc: Mapping, kind: str, keys) -> None:
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValidationError(f'{kind} document needs "{key}"')


def cocycle_to_doc(cocycle) -> dict:
    return {
        "cover": cover_to_doc(cocycle.cover),
        "group": group_to_doc(cocycle.group),
        "values": _pair_values_to_doc(cocycle.values, cocycle.value),
    }


def parse_cocycle_doc(doc: Mapping) -> tuple:
    """(cover, group, values) of a cocycle document, not yet validated."""
    require_keys(doc, "cocycle", ("cover", "group", "values"))
    return (
        cover_from_doc(doc["cover"]),
        group_from_doc(doc["group"]),
        cocycle_values_from_doc(doc["values"]),
    )


def cocycle_from_doc(doc: Mapping):
    return validate_cocycle(*parse_cocycle_doc(doc))


def crossed_module_to_doc(module: CrossedModule) -> dict:
    return {
        "baseGroup": group_to_doc(module.base),
        "fiberGroup": group_to_doc(module.fiber),
        "boundary": list(module.boundary),
        "action": [list(r) for r in module.action],
    }


def crossed_module_from_doc(doc: Mapping) -> CrossedModule:
    require_keys(doc, "crossed module",
                 ("baseGroup", "fiberGroup", "boundary", "action"))
    return validate_crossed_module(
        group_from_doc(doc["baseGroup"]),
        group_from_doc(doc["fiberGroup"]),
        _integers(doc["boundary"], '"boundary"'),
        _integer_rows(doc["action"], 'crossed-module "action"'),
    )


def gerbe_to_doc(data) -> dict:
    """Edges are keyed like a cocycle's.  A triple whose labels sort
    differently as strings would need its witness transformed, so it is
    refused rather than written into a document that cannot reload."""
    for t in data.witnesses:
        if sorted(map(str, t)) != list(map(str, t)):
            raise ValidationError(
                f"cannot write the witness at {t!r}: its labels sort "
                f"differently as strings",
                details={"triple": t},
            )
    return {
        "cover": cover_to_doc(data.cover),
        "crossedModule": crossed_module_to_doc(data.module),
        "values": _pair_values_to_doc(data.edge_values, data.edge),
        "witnesses": {
            _pair_key(t): v for t, v in sorted(data.witnesses.items())
        },
    }


def parse_gerbe_doc(doc: Mapping) -> tuple:
    """(cover, module, values, witnesses) of a gerbe document, not yet
    validated."""
    require_keys(doc, "gerbe", ("cover", "crossedModule", "values", "witnesses"))
    return (
        cover_from_doc(doc["cover"]),
        crossed_module_from_doc(doc["crossedModule"]),
        cocycle_values_from_doc(doc["values"]),
        gerbe_witnesses_from_doc(doc["witnesses"]),
    )


def gerbe_from_doc(doc: Mapping):
    return validate_gerbe_cocycle(*parse_gerbe_doc(doc))


def bundle_to_doc(bundle) -> dict:
    """Bundles serialize with flattened total vertex names.

    A total vertex is rendered as the ``|``-joined flattening of its
    label tuple, so documents round-trip as opaque string labels.  When
    no two total vertices flatten alike, the flattening is an
    isomorphism and the total's maximal simplices are written as they
    flatten; otherwise the flattened ones are closed again, so that
    labels that collide merge as in any other document.
    """
    vertices = bundle.total.vertices
    flat = dict(zip(vertices, map(_flatten, vertices)))
    tops = [sorted(map(flat.__getitem__, s)) for s in bundle.total._top_sets()]
    if len(set(flat.values())) < len(flat):
        tops = complex_to_doc(build_complex(map(frozenset, tops)))["maximal"]
    base_of = bundle.projection.vertex_map.__getitem__
    doc = {
        "total": {"maximal": sorted(tops)},
        "base": complex_to_doc(bundle.base),
        "projection": dict(zip(flat.values(), map(str, map(base_of, flat)))),
        "fiber": [str(f) for f in bundle.fiber],
    }
    doc["action"] = action_to_doc(bundle.action) if bundle.action else None
    if bundle.action is not None:
        doc["group"] = group_to_doc(bundle.action.group)
    return doc


def _flatten(v) -> str:
    if isinstance(v, tuple):
        return "|".join(map(_flatten, v))
    return str(v)


def bundle_from_doc(doc: Mapping):
    require_keys(doc, "bundle", ("total", "base", "projection", "fiber"))
    total = complex_from_doc(doc["total"])
    base = complex_from_doc(doc["base"])
    projection = SimplicialMap(
        total, base, _label_map(doc["projection"], '"projection"')
    )
    action = None
    if doc.get("action") and doc.get("group"):
        action = action_from_doc(doc["action"], group_from_doc(doc["group"]))
    return validate_bundle(
        Bundle(
            total=total,
            base=base,
            projection=projection,
            fiber=tuple(str(f) for f in _labels(doc["fiber"], '"fiber"')),
            action=action,
        )
    )


def parse_milnor_doc(doc: Mapping) -> tuple:
    """(coordinates, values, group) of a coordinate-point document, not
    yet validated."""
    require_keys(doc, "coordinate-point", ("t", "g", "group"))
    group = group_from_doc(doc["group"])
    if not isinstance(doc["t"], list):
        raise ValidationError('"t" must be a list of rationals')
    coords = [_rational(t) for t in doc["t"]]
    values = {
        (_index(i), _index(j)): v
        for (i, j), v in _keyed_integers(doc["g"], 2, '"g"').items()
    }
    return coords, values, group


def _rational(t) -> Fraction:
    try:
        return Fraction(str(t))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"coordinate {t!r} is not a rational number")


def _index(name: str) -> int:
    try:
        return int(name)
    except ValueError:
        raise ValidationError(f"index {name!r} is not an integer")
