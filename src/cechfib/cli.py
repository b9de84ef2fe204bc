"""Batch command line: load JSON documents, run a verb, emit a report.

Each verb is one ``_VERBS`` entry: how many documents it reads, a runner
that turns them into a verdict and report details, and the options of
``_OPTIONS`` that the runner reads.  Each verb accepts only those, beside
``--input`` and ``--output``: ``--budget`` for ``cocycle-equiv`` and
``classify``, ``--max-degree`` for ``homology`` and ``bar-homology``, and
``--mode`` for ``bundle-build``.

Exit codes: 0 verdict true; 1 verdict false, report written; 2 input
error, an ``--output`` that cannot be written included; 3 search budget
exceeded.  Nothing is written to stdout on exit codes 2 and 3.  Reports
are JSON with a top-level verdict and details; identical inputs give
byte-identical reports apart from the toolVersion field.  A report's
text is ``json.dumps(report, indent=2, sort_keys=True)`` plus a newline
on every Python; before 3.13, where that call encodes in pure Python,
:func:`report_text` writes the same text in bulk.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

from . import __version__
from .bundles import pullback, skeletal_construction, total_space
from .classifying import (
    bar_homology, classification_check, validate_milnor_point,
)
from .cocycles import are_equivalent, validate_cocycle
from .covers import is_good_cover
from .errors import DEFAULT_BUDGET, BudgetExceededError, ValidationError
from .gerbes import abelian_classifier, validate_gerbe_cocycle
from .groups import regular_action
from .homology import homology
from . import io as docio

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _Verb(NamedTuple):
    inputs: int
    run: Callable  # (docs, args) -> (verdict, details)
    options: tuple = ()  # keys of _OPTIONS that run reads


_OPTIONS = {
    "--budget": dict(type=int, default=DEFAULT_BUDGET,
                     help="cap on exhaustive search size"),
    "--max-degree": dict(type=int, default=None, dest="max_degree",
                         help="top homology degree for homology verbs"),
    "--mode": dict(choices=("direct", "skeletal"), default="direct"),
}


def _load(paths: List[str]) -> list:
    docs = []
    for p in paths:
        try:
            text = Path(p).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ValidationError(f"input file {p!r} does not exist")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"input file {p!r} is not readable UTF-8: {exc}")
        try:
            docs.append(json.loads(text))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"input file {p!r} is not JSON: {exc}")
    return docs


def _checker(parse, validate, details, *, context=True):
    """Runner of a verb whose broken law is a false verdict: a document
    that ``parse`` rejects is an input error, and only ``validate``'s
    ValidationError is reported, with its details unless ``context`` is off."""
    def run(docs, args):
        parsed = parse(docs[0])
        try:
            result = validate(*parsed)
        except ValidationError as exc:
            out = {"error": str(exc)}
            if context and getattr(exc, "details", None):
                out["context"] = _stringify(exc.details)
            return False, out
        return True, details(result)
    return run


def _homology_run(load, compute, default_degree):
    """Runner of a homology verb: Betti numbers and torsion up to
    ``--max-degree``, else up to ``default_degree`` of the loaded input."""
    def run(docs, args):
        x = load(docs[0])
        degree = args.max_degree if args.max_degree is not None else default_degree(x)
        result = compute(x, degree)
        return True, {"betti": list(result.betti_numbers()),
                      "torsion": [list(t) for t in result.torsion()]}
    return run


def _run_nerve(docs, args) -> tuple:
    nerve = docio.cover_from_doc(docs[0]).nerve
    witness_sizes = {
        "|".join(str(i) for i in key): w.simplex_count()
        for key, w in sorted(nerve.witnesses.items())
    }
    return True, {"nerve": docio.complex_to_doc(nerve.complex),
                  "witnessSizes": witness_sizes}


def _run_cover_check(docs, args) -> tuple:
    report = is_good_cover(docio.cover_from_doc(docs[0]))
    return report.good, {
        "good": report.good,
        # a loaded cover covers its base, or loading it failed
        "carrier": True,
        "failures": [
            {"intersection": list(map(str, key)), "reason": reason}
            for key, reason in report.failures
        ],
    }


def _run_cocycle_equiv(docs, args) -> tuple:
    d1, d2 = docs
    c1 = docio.cocycle_from_doc(d1)
    docio.require_keys(d2, "cocycle", ("cover", "group", "values"))
    # a cover or group document the two share is parsed once, and a
    # second cover equal to the first is replaced by it, so that both
    # cocycles read one nerve.  When every label is a string, which
    # equals only a string (a part's labels are base labels), == already
    # says the two covers parse alike.
    cover = c1.cover
    shared = (d2["cover"] == d1["cover"]
              and all(isinstance(v, str) for v in cover.base.vertices))
    if not (shared or _same_json(d2["cover"], d1["cover"])):
        other = docio.cover_from_doc(d2["cover"])
        if other != cover:
            cover = other
    group = (c1.group if _same_json(d2["group"], d1["group"])
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


def _same_json(a, b) -> bool:
    """Equal as JSON text; Python's ``==`` would also match 1 with 1.0
    or true, which a document may not use interchangeably."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _run_bundle_build(docs, args) -> tuple:
    doc = docs[0]
    cocycle = docio.cocycle_from_doc(doc)
    action = (docio.action_from_doc(doc["action"], cocycle.group)
              if doc.get("action") else regular_action(cocycle.group))
    builder = total_space if args.mode == "direct" else skeletal_construction
    bundle = builder(cocycle, action)
    return True, {"mode": args.mode, "bundle": docio.bundle_to_doc(bundle)}


def _run_pullback(docs, args) -> tuple:
    bundle_doc, map_doc = docs
    bundle = docio.bundle_from_doc(bundle_doc)
    docio.require_keys(map_doc, "pullback map", ("source", "vertexMap"))
    source = docio.complex_from_doc(map_doc["source"])
    f = docio.map_from_doc(map_doc, source, bundle.base)
    return True, {"bundle": docio.bundle_to_doc(pullback(bundle, f))}


def _run_classify(docs, args) -> tuple:
    cover = docio.cover_from_doc(docs[0])
    group = docio.group_from_doc(docs[1])
    report = classification_check(cover, group, budget=args.budget)
    return report.verdict, {
        "classes": report.cocycle_classes,
        "homClasses": report.hom_classes,
        "pullbacksMatch": list(report.pullbacks_match),
    }


def _run_gerbe_class(docs, args) -> tuple:
    data = docio.gerbe_from_doc(docs[0])
    classifier = abelian_classifier(data)
    return True, {"classLabel": list(classifier.label(data.witnesses)),
                  "classCount": classifier.class_count}


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


# json's text for every item of a list whose items share one exact type;
# a str subclass or a bool (an int subclass) is written item by item
_STR = frozenset([str])
_LEAF_TEXT = {_STR: _quote, frozenset([int]): int.__repr__}
_SEQUENCES = frozenset([list, tuple])


def report_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, the same text.

    Before Python 3.13 that call writes item by item in Python.  Here a
    value made of strings, ints, bools, None, lists and dicts with string
    keys is written with one C-level join per list of strings or of exact
    ints, per list of lists of either and per dict from strings to either.
    A value holding anything else (a float, another key type, a cycle) is
    written whole by json.dumps, which raises what it raises.
    """
    try:
        return _text(value, "\n")
    except (TypeError, RecursionError):
        return json.dumps(value, indent=2, sort_keys=True)


def _text(o, nl: str) -> str:
    """JSON text of ``o``, which starts on a line that ``nl`` opens; a
    TypeError leaves the whole value to json.dumps."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        return _list_text(o, nl)
    if isinstance(o, dict):
        return _dict_text(o, nl)
    raise TypeError(o.__class__.__name__)


def _list_text(o, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    kinds = frozenset(map(type, o))
    leaf = _LEAF_TEXT.get(kinds)
    if leaf is not None:
        items = map(leaf, o)
    elif kinds <= _SEQUENCES and all(o) and (
            leaf := _LEAF_TEXT.get(frozenset(map(type, chain.from_iterable(o))))):
        # one join per inner list, and one for the list
        inner2 = inner + "  "
        bodies = map(("," + inner2).join, map(functools.partial(map, leaf), o))
        return ("[" + inner + "[" + inner2
                + (inner + "]," + inner + "[" + inner2).join(bodies)
                + inner + "]" + nl + "]")
    else:
        items = [_text(x, inner) for x in o]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _dict_text(o, nl: str) -> str:
    if not o:
        return "{}"
    if frozenset(map(type, o)) != _STR:
        raise TypeError("a key that is not a str")
    inner = nl + "  "
    keys = sorted(o)
    values = map(o.__getitem__, keys)
    leaf = _LEAF_TEXT.get(frozenset(map(type, o.values())))
    texts = map(leaf, values) if leaf else [_text(v, inner) for v in values]
    items = map(": ".join, zip(map(_quote, keys), texts))
    return "{" + inner + ("," + inner).join(items) + nl + "}"


# CPython 3.13 writes indented JSON in C, faster than report_text
_dump_report = (functools.partial(json.dumps, indent=2, sort_keys=True)
                if sys.version_info >= (3, 13) else report_text)


# runners look library functions up when they run (hence the lambdas), so
# a function rebound on its module, by a tracer or a test, is the one called
_VERBS = {
    # build_complex's details would name the offending simplex; this
    # verb's report has never carried them
    "validate-complex": _Verb(1, _checker(
        lambda doc: (doc,), lambda doc: docio.complex_from_doc(doc),
        lambda x: {"vertices": len(x.vertices), "dim": x.dim,
                   "simplexCounts": [x.simplex_count(k) for k in range(x.dim + 1)]},
        context=False)),
    "homology": _Verb(1, _homology_run(
        lambda doc: docio.complex_from_doc(doc),
        lambda x, degree: homology(x, degree), lambda x: max(x.dim, 0)),
        ("--max-degree",)),
    "nerve": _Verb(1, _run_nerve),
    "cover-check": _Verb(1, _run_cover_check),
    "cocycle-check": _Verb(1, _checker(
        lambda doc: docio.parse_cocycle_doc(doc),
        lambda *parsed: validate_cocycle(*parsed),
        lambda cocycle: {"pairs": len(cocycle.values)})),
    "cocycle-equiv": _Verb(2, _run_cocycle_equiv, ("--budget",)),
    "bundle-build": _Verb(1, _run_bundle_build, ("--mode",)),
    "pullback": _Verb(2, _run_pullback),
    "classify": _Verb(2, _run_classify, ("--budget",)),
    "gerbe-check": _Verb(1, _checker(
        lambda doc: docio.parse_gerbe_doc(doc),
        lambda *parsed: validate_gerbe_cocycle(*parsed),
        lambda data: {"pairs": len(data.edge_values),
                      "witnesses": len(data.witnesses)})),
    "gerbe-class": _Verb(1, _run_gerbe_class),
    "bar-homology": _Verb(1, _homology_run(
        lambda doc: docio.group_from_doc(doc),
        lambda group, degree: bar_homology(group, degree), lambda group: 3),
        ("--max-degree",)),
    "milnor-check": _Verb(1, _checker(
        lambda doc: docio.parse_milnor_doc(doc),
        lambda *parsed: validate_milnor_point(*parsed),
        lambda point: {"support": [i for i, t in enumerate(point.coordinates)
                                   if t != 0]})),
}


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser: an argument the verb does not read is refused
    under the verb's own usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept: parsing
    leaves no state in it, and building it costs more than a small job."""
    parser = argparse.ArgumentParser(
        prog="cechfib",
        description="Validate and classify combinatorial transition data.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_VerbParser)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", nargs="+", required=True,
                       help="input JSON document(s)")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
        for option in verb.options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    verb = _VERBS[args.command]
    try:
        docs = _load(args.input)
        if len(docs) != verb.inputs:
            noun = "document" if verb.inputs == 1 else "documents"
            raise ValidationError(
                f"expected {verb.inputs} input {noun}, got {len(docs)}")
        verdict, details = verb.run(docs, args)
    except BudgetExceededError as exc:
        print(f"cechfib: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"cechfib: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"toolVersion": __version__, "command": args.command,
              "verdict": verdict, "details": details}
    text = _dump_report(report) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"cechfib: input error: cannot write report to "
                  f"{args.output!r}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_TRUE if verdict else EXIT_FALSE


if __name__ == "__main__":
    raise SystemExit(main())
