"""The command-line parser is built once per process.

Help text, usage errors and exit codes are the ones the parser gave
when it was rebuilt for every call, except that each verb now accepts
only the options it reads and refuses any other under its own usage
line; the expected text below was recorded at a terminal width of 80
columns.  Consecutive calls share nothing but the
parser.
"""

from __future__ import annotations

import json
import sys

import pytest

from cechfib import cli, star_cover
from cechfib import io as docio

import corpus

# Python 3.13 keeps the top-level usage's "..." on the subcommand line
if sys.version_info >= (3, 13):
    TOP_USAGE = (
        'usage: cechfib [-h]\n'
        '               {validate-complex,homology,nerve,cover-check,cocycle-check,cocycle-equiv,bundle-build,pullback,classify,gerbe-check,gerbe-class,bar-homology,milnor-check} ...\n'
    )
else:
    TOP_USAGE = (
        'usage: cechfib [-h]\n'
        '               {validate-complex,homology,nerve,cover-check,cocycle-check,cocycle-equiv,bundle-build,pullback,classify,gerbe-check,gerbe-class,bar-homology,milnor-check}\n'
        '               ...\n'
    )

TOP_HELP = TOP_USAGE + (
    '\n'
    'Validate and classify combinatorial transition data.\n'
    '\n'
    'positional arguments:\n'
    '  {validate-complex,homology,nerve,cover-check,cocycle-check,cocycle-equiv,bundle-build,pullback,classify,gerbe-check,gerbe-class,bar-homology,milnor-check}\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
)

VERB_HELP = {
    'validate-complex': (
        'usage: cechfib validate-complex [-h] --input INPUT [INPUT ...]\n'
        '                                [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'homology': (
        'usage: cechfib homology [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '                        [--max-degree MAX_DEGREE]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
        '  --max-degree MAX_DEGREE\n'
        '                        top homology degree for homology verbs\n'
    ),
    'nerve': (
        'usage: cechfib nerve [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'cover-check': (
        'usage: cechfib cover-check [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'cocycle-check': (
        'usage: cechfib cocycle-check [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'cocycle-equiv': (
        'usage: cechfib cocycle-equiv [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '                             [--budget BUDGET]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
        '  --budget BUDGET       cap on exhaustive search size\n'
    ),
    'bundle-build': (
        'usage: cechfib bundle-build [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '                            [--mode {direct,skeletal}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
        '  --mode {direct,skeletal}\n'
    ),
    'pullback': (
        'usage: cechfib pullback [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'classify': (
        'usage: cechfib classify [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '                        [--budget BUDGET]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
        '  --budget BUDGET       cap on exhaustive search size\n'
    ),
    'gerbe-check': (
        'usage: cechfib gerbe-check [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'gerbe-class': (
        'usage: cechfib gerbe-class [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
    'bar-homology': (
        'usage: cechfib bar-homology [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '                            [--max-degree MAX_DEGREE]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
        '  --max-degree MAX_DEGREE\n'
        '                        top homology degree for homology verbs\n'
    ),
    'milnor-check': (
        'usage: cechfib milnor-check [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT [INPUT ...]\n'
        '                        input JSON document(s)\n'
        '  --output OUTPUT       write the report here instead of stdout\n'
    ),
}

MISSING_INPUT = (
    'usage: cechfib classify [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
    '                        [--budget BUDGET]\n'
    'cechfib classify: error: the following arguments are required: --input\n'
)

BAD_MODE = (
    'usage: cechfib bundle-build [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
    '                            [--mode {direct,skeletal}]\n'
    "cechfib bundle-build: error: argument --mode: invalid choice: 'bad' (choose from 'direct', 'skeletal')\n"
)

# a verb's usage line is the same on every Python version
NERVE_BUDGET = (
    'usage: cechfib nerve [-h] --input INPUT [INPUT ...] [--output OUTPUT]\n'
    'cechfib nerve: error: unrecognized arguments: --budget 5\n'
)

NO_VERB = TOP_USAGE + (
    'cechfib: error: the following arguments are required: command\n'
)


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    # argparse wraps help to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def call(capsys, argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_the_help_lists_every_verb():
    assert list(VERB_HELP) == list(cli._VERBS)


def test_top_level_help(capsys):
    assert call(capsys, ["--help"]) == (0, TOP_HELP, "")


@pytest.mark.parametrize("verb", list(VERB_HELP))
def test_verb_help(capsys, verb):
    assert call(capsys, [verb, "--help"]) == (0, VERB_HELP[verb], "")


def test_usage_errors(capsys):
    assert call(capsys, ["classify"]) == (2, "", MISSING_INPUT)
    assert call(capsys, ["bundle-build", "--input", "x", "--mode", "bad"]) == (
        2, "", BAD_MODE)
    assert call(capsys, []) == (2, "", NO_VERB)


def test_nerve_refuses_a_budget(tmp_path, capsys):
    path = write(tmp_path, "cover.json",
                 docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE)))
    assert call(capsys, ["nerve", "--input", path])[0] == cli.EXIT_TRUE
    assert call(capsys, ["nerve", "--input", path, "--budget", "5"]) == (
        2, "", NERVE_BUDGET)


@pytest.mark.parametrize("verb", list(VERB_HELP))
def test_each_verb_accepts_only_the_options_it_reads(tmp_path, capsys, verb):
    reads = {"cocycle-equiv": ("--budget",), "classify": ("--budget",),
             "homology": ("--max-degree",), "bar-homology": ("--max-degree",),
             "bundle-build": ("--mode",)}.get(verb, ())
    assert cli._VERBS[verb].options == reads
    missing = str(tmp_path / "missing.json")
    for option, value in (("--budget", "5"), ("--max-degree", "1"),
                          ("--mode", "skeletal")):
        code, out, err = call(capsys, [verb, "--input", missing, option, value])
        assert (code, out) == (2, "")
        # an option the verb reads gets as far as loading the input
        assert ("does not exist" in err) == (option in reads), err
        assert ("unrecognized arguments" in err) == (option not in reads), err
        if option not in reads:
            # refused under the verb's own usage line
            assert err.startswith(f"usage: cechfib {verb} [-h]"), err
            assert err.endswith(f"\ncechfib {verb}: error: unrecognized "
                                f"arguments: {option} {value}\n"), err


def test_the_parser_is_built_once(capsys):
    first = cli._parser()
    call(capsys, ["--help"])
    call(capsys, ["classify"])
    assert cli._parser() is first


def test_repeated_help_and_errors_stay_identical(capsys):
    for _ in range(2):
        assert call(capsys, ["--help"]) == (0, TOP_HELP, "")
        assert call(capsys, ["bundle-build", "--help"]) == (
            0, VERB_HELP["bundle-build"], "")
        assert call(capsys, ["classify"]) == (2, "", MISSING_INPUT)


def report_of(capsys, argv):
    code, out, err = call(capsys, argv)
    return code, json.loads(out) if out else None


def test_max_degree_does_not_leak_into_the_next_call(tmp_path, capsys):
    path = write(tmp_path, "torus.json", docio.complex_to_doc(corpus.TORUS_SEVEN))
    code, low = report_of(capsys, ["homology", "--input", path, "--max-degree", "1"])
    assert code == cli.EXIT_TRUE and low["details"]["betti"] == [1, 2]
    code, default = report_of(capsys, ["homology", "--input", path])
    assert code == cli.EXIT_TRUE and default["details"]["betti"] == [1, 2, 1]


def test_mode_does_not_leak_into_the_next_call(tmp_path, capsys):
    doc = {
        "cover": docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE)),
        "group": {"order": 2, "table": [[0, 1], [1, 0]]},
        "values": {"a|b": 0, "b|c": 0, "a|c": 1},
    }
    path = write(tmp_path, "circle.json", doc)
    code, skeletal = report_of(
        capsys, ["bundle-build", "--input", path, "--mode", "skeletal"])
    assert code == cli.EXIT_TRUE and skeletal["details"]["mode"] == "skeletal"
    code, direct = report_of(capsys, ["bundle-build", "--input", path])
    assert code == cli.EXIT_TRUE and direct["details"]["mode"] == "direct"
    assert direct["details"]["bundle"] == skeletal["details"]["bundle"]


def test_budget_does_not_leak_into_the_next_call(tmp_path, capsys):
    cover = docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE))
    s3 = docio.group_to_doc(corpus.S3)
    p1 = write(tmp_path, "c1.json", {
        "cover": cover, "group": s3, "values": {"a|b": 0, "b|c": 0, "a|c": 3}})
    p2 = write(tmp_path, "c2.json", {
        "cover": cover, "group": s3, "values": {"a|b": 0, "b|c": 0, "a|c": 0}})
    argv = ["cocycle-equiv", "--input", p1, p2]
    assert call(capsys, argv + ["--budget", "2"])[0] == cli.EXIT_BUDGET
    code, report = report_of(capsys, argv)
    assert code == cli.EXIT_FALSE and report["verdict"] is False
    assert call(capsys, argv + ["--budget", "2"])[0] == cli.EXIT_BUDGET
