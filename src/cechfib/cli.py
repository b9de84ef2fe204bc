"""Batch command line: load JSON documents, run a verb, emit a report.

Exit codes: 0 success / verdict true; 1 validated false; 2 input error;
3 search budget exceeded.  Reports are JSON with a top-level verdict and
details; identical inputs produce byte-identical reports apart from the
versioned toolVersion field.  Nothing is written on exit codes 2 and 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .bundles import pullback, skeletal_construction, total_space
from .classifying import (
    bar_homology, classification_check, validate_milnor_point,
)
from .cocycles import are_equivalent, validate_cocycle
from .covers import carrier_check, cech_nerve
from .errors import BudgetExceededError, ValidationError
from .gerbes import abelian_classifier, validate_gerbe_cocycle
from .groups import regular_action
from .homology import homology
from . import io as docio

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 1_000_000


class _Inputs:
    def __init__(self, paths: List[str]):
        self.docs = []
        for p in paths:
            path = Path(p)
            if not path.exists():
                raise ValidationError(f"input file {p!r} does not exist")
            try:
                self.docs.append(json.loads(path.read_text(encoding="utf-8")))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"input file {p!r} is not JSON: {exc}")

    def one(self):
        if len(self.docs) != 1:
            raise ValidationError(f"expected 1 input document, got {len(self.docs)}")
        return self.docs[0]

    def two(self):
        if len(self.docs) != 2:
            raise ValidationError(f"expected 2 input documents, got {len(self.docs)}")
        return self.docs


def _report(command: str, verdict, details) -> dict:
    return {
        "toolVersion": __version__,
        "command": command,
        "verdict": verdict,
        "details": details,
    }


def _validated_false(command: str, exc: ValidationError) -> tuple:
    details = {"error": str(exc)}
    if getattr(exc, "details", None):
        details["context"] = _stringify(exc.details)
    return EXIT_FALSE, _report(command, False, details)


def _run_validate_complex(inputs: _Inputs, args) -> tuple:
    try:
        x = docio.complex_from_doc(inputs.one())
    except ValidationError as exc:
        return EXIT_FALSE, _report("validate-complex", False, {"error": str(exc)})
    return EXIT_TRUE, _report(
        "validate-complex", True,
        {"vertices": len(x.vertices), "dim": x.dim,
         "simplexCounts": [x.simplex_count(k) for k in range(x.dim + 1)]},
    )


def _run_homology(inputs: _Inputs, args) -> tuple:
    x = docio.complex_from_doc(inputs.one())
    degree = args.max_degree if args.max_degree is not None else max(x.dim, 0)
    result = homology(x, degree)
    return EXIT_TRUE, _report(
        "homology", True,
        {"betti": list(result.betti_numbers()),
         "torsion": [list(t) for t in result.torsion()]},
    )


def _run_nerve(inputs: _Inputs, args) -> tuple:
    cover = docio.cover_from_doc(inputs.one())
    nerve = cech_nerve(cover)
    witness_sizes = {
        "|".join(str(i) for i in key): len(w.simplices)
        for key, w in sorted(nerve.witnesses.items())
    }
    return EXIT_TRUE, _report(
        "nerve", True,
        {"nerve": docio.complex_to_doc(nerve.complex),
         "witnessSizes": witness_sizes},
    )


def _run_cover_check(inputs: _Inputs, args) -> tuple:
    cover = docio.cover_from_doc(inputs.one())
    report = cech_nerve(cover).goodness
    details = {
        "good": report.good,
        "carrier": carrier_check(cover),
        "failures": [
            {"intersection": list(map(str, key)), "reason": reason}
            for key, reason in report.failures
        ],
    }
    code = EXIT_TRUE if report.good else EXIT_FALSE
    return code, _report("cover-check", report.good, details)


def _run_cocycle_check(inputs: _Inputs, args) -> tuple:
    parsed = docio.parse_cocycle_doc(inputs.one())
    try:
        cocycle = validate_cocycle(*parsed)
    except ValidationError as exc:
        return _validated_false("cocycle-check", exc)
    return EXIT_TRUE, _report(
        "cocycle-check", True, {"pairs": len(cocycle.values)}
    )


def _run_cocycle_equiv(inputs: _Inputs, args) -> tuple:
    d1, d2 = inputs.two()
    c1 = docio.cocycle_from_doc(d1)
    docio.require_keys(d2, "cocycle", ("cover", "group", "values"))
    if _same_json(d2["cover"], d1["cover"]):
        # one cover document: validate over the first cocycle's nerve
        c2 = validate_cocycle(
            c1.cover,
            docio.group_from_doc(d2["group"]),
            docio.cocycle_values_from_doc(d2["values"]),
            nerve=c1.nerve,
        )
    else:
        cover, group, values = docio.parse_cocycle_doc(d2)
        if cover == c1.cover:
            c2 = validate_cocycle(c1.cover, group, values, nerve=c1.nerve)
        else:
            c2 = validate_cocycle(cover, group, values)
    result = are_equivalent(c1, c2, budget=args.budget)
    details = {}
    if result.equivalent:
        details["bridge"] = {
            "|".join(map(str, key)): value
            for key, value in sorted(result.bridge.items())
        }
    code = EXIT_TRUE if result.equivalent else EXIT_FALSE
    return code, _report("cocycle-equiv", result.equivalent, details)


def _same_json(a, b) -> bool:
    """Equal as JSON text; Python's ``==`` would also match 1 with 1.0
    or true, which a document may not use interchangeably."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _run_bundle_build(inputs: _Inputs, args) -> tuple:
    doc = inputs.one()
    cocycle = docio.cocycle_from_doc(doc)
    if doc.get("action"):
        action = docio.action_from_doc(doc["action"], cocycle.group)
    else:
        action = regular_action(cocycle.group)
    builder = total_space if args.mode == "direct" else skeletal_construction
    bundle = builder(cocycle, action)
    return EXIT_TRUE, _report(
        "bundle-build", True,
        {"mode": args.mode, "bundle": docio.bundle_to_doc(bundle)},
    )


def _run_pullback(inputs: _Inputs, args) -> tuple:
    bundle_doc, map_doc = inputs.two()
    bundle = docio.bundle_from_doc(bundle_doc)
    docio.require_keys(map_doc, "pullback map", ("source", "vertexMap"))
    source = docio.complex_from_doc(map_doc["source"])
    f = docio.map_from_doc(map_doc, source, bundle.base)
    result = pullback(bundle, f)
    return EXIT_TRUE, _report(
        "pullback", True, {"bundle": docio.bundle_to_doc(result)}
    )


def _run_classify(inputs: _Inputs, args) -> tuple:
    cover_doc, group_doc = inputs.two()
    cover = docio.cover_from_doc(cover_doc)
    group = docio.group_from_doc(group_doc)
    report = classification_check(cover, group, budget=args.budget)
    details = {
        "classes": report.cocycle_classes,
        "homClasses": report.hom_classes,
        "pullbacksMatch": list(report.pullbacks_match),
    }
    code = EXIT_TRUE if report.verdict else EXIT_FALSE
    return code, _report("classify", report.verdict, details)


def _run_gerbe_check(inputs: _Inputs, args) -> tuple:
    parsed = docio.parse_gerbe_doc(inputs.one())
    try:
        data = validate_gerbe_cocycle(*parsed)
    except ValidationError as exc:
        return _validated_false("gerbe-check", exc)
    return EXIT_TRUE, _report(
        "gerbe-check", True,
        {"pairs": len(data.edge_values), "witnesses": len(data.witnesses)},
    )


def _run_gerbe_class(inputs: _Inputs, args) -> tuple:
    data = docio.gerbe_from_doc(inputs.one())
    classifier = abelian_classifier(data)
    label = classifier.label(data.witnesses)
    return EXIT_TRUE, _report(
        "gerbe-class", True,
        {"classLabel": list(label), "classCount": classifier.class_count},
    )


def _run_bar_homology(inputs: _Inputs, args) -> tuple:
    group = docio.group_from_doc(inputs.one())
    degree = args.max_degree if args.max_degree is not None else 3
    result = bar_homology(group, degree)
    return EXIT_TRUE, _report(
        "bar-homology", True,
        {"betti": list(result.betti_numbers()),
         "torsion": [list(t) for t in result.torsion()]},
    )


def _run_milnor_check(inputs: _Inputs, args) -> tuple:
    parsed = docio.parse_milnor_doc(inputs.one())
    try:
        point = validate_milnor_point(*parsed)
    except ValidationError as exc:
        return _validated_false("milnor-check", exc)
    return EXIT_TRUE, _report(
        "milnor-check", True,
        {"support": [i for i, t in enumerate(point.coordinates) if t != 0]},
    )


def _stringify(value):
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_stringify(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


_VERBS = {
    "validate-complex": _run_validate_complex,
    "homology": _run_homology,
    "nerve": _run_nerve,
    "cover-check": _run_cover_check,
    "cocycle-check": _run_cocycle_check,
    "cocycle-equiv": _run_cocycle_equiv,
    "bundle-build": _run_bundle_build,
    "pullback": _run_pullback,
    "classify": _run_classify,
    "gerbe-check": _run_gerbe_check,
    "gerbe-class": _run_gerbe_class,
    "bar-homology": _run_bar_homology,
    "milnor-check": _run_milnor_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept: parsing
    leaves no state in it, and building it costs more than a small job."""
    parser = argparse.ArgumentParser(
        prog="cechfib",
        description="Validate and classify combinatorial transition data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--input", nargs="+", required=True,
                       help="input JSON document(s)")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="cap on exhaustive search size")
        p.add_argument("--max-degree", type=int, default=None, dest="max_degree",
                       help="top homology degree for homology verbs")
        if verb == "bundle-build":
            p.add_argument("--mode", choices=("direct", "skeletal"),
                           default="direct")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    runner = _VERBS[args.command]
    try:
        inputs = _Inputs(args.input)
        code, report = runner(inputs, args)
    except BudgetExceededError as exc:
        print(f"cechfib: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"cechfib: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
