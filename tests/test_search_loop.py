"""The one depth-first loop that every search runs on, tested directly on a
toy search; the gauge search on it against its former loop, replayed
verbatim; and the budget every search refuses before it looks at its
input."""

import itertools
import json

import pytest

from cechfib import (
    BudgetExceededError,
    Pi1Presentation,
    ValidationError,
    abelian_coefficients,
    are_equivalent,
    build_complex,
    bundle_isomorphism,
    cli,
    enumerate_homs,
    gerbes_equivalent,
    product_bundle,
    star_cover,
    trivial_cocycle,
    validate_cocycle,
    validate_gerbe_cocycle,
)
from cechfib import io as docio
from cechfib.cocycles import monodromy_representatives
from cechfib.errors import depth_first

import corpus
import reference_transitions as reference

# --- depth_first on a toy search ---------------------------------------------
#
# Positions 0 .. SIZE - 1 take values 0 .. VALUES - 1.  Every third
# position (2, 5) is forced to the sum of the two before it, mod VALUES,
# when the position before it is assigned; a forced value of 0 does not
# fit.  A guessed value must differ from the value before it.

SIZE, VALUES = 7, 3
FORCED = {2, 5}


def fits(x) -> bool:
    """The toy's constraints on a full tuple."""
    return all(
        x[i] == (x[i - 2] + x[i - 1]) % VALUES and x[i] != 0 if i in FORCED
        else i == 0 or x[i] != x[i - 1]
        for i in range(SIZE)
    )


class Toy:
    def __init__(self):
        self.state = [None] * SIZE
        self.trail = []  # positions set, in order
        self.snapshots = {}  # trail mark -> state when its frame was pushed
        self.retracted = []  # every mark retract was asked for
        self.refused = self.unfit = 0  # failed assigns, forced values that do not fit

    def advance(self, i):
        while i < SIZE and self.state[i] is not None:
            if self.state[i] == 0:  # only forced positions are set ahead
                self.unfit += 1
                return None
            i += 1
        return i

    def choices(self, i):
        self.snapshots[len(self.trail)] = list(self.state)
        return range(VALUES)

    def assign(self, i, c):
        if i > 0 and self.state[i - 1] == c:
            self.refused += 1
            return False
        self.state[i] = c
        self.trail.append(i)
        if i + 1 in FORCED:
            self.state[i + 1] = (self.state[i - 1] + c) % VALUES
            self.trail.append(i + 1)
        return True

    def retract(self, mark):
        while len(self.trail) > mark:
            self.state[self.trail.pop()] = None
        self.retracted.append(mark)
        assert self.state == self.snapshots[mark]

    def search(self, budget):
        for _ in depth_first(SIZE, self.advance, self.choices, self.assign,
                             self.trail, self.retract, budget,
                             lambda spent: f"spent {spent} of {budget}"):
            yield tuple(self.state)


def toy_guesses() -> int:
    """Guesses of the whole toy search: one per assign call."""
    toy = Toy()
    calls = []
    assign = toy.assign
    toy.assign = lambda i, c: calls.append(i) or assign(i, c)
    list(toy.search(10**9))
    return len(calls)


def test_toy_hits_come_in_lexicographic_order_and_match_brute_force():
    toy = Toy()
    hits = list(toy.search(10**9))
    want = [x for x in itertools.product(range(VALUES), repeat=SIZE) if fits(x)]
    assert want and hits == want
    # both ways back up were taken
    assert toy.refused and toy.unfit


def test_toy_retract_restores_every_mark():
    toy = Toy()
    list(toy.search(10**9))
    # every frame was retracted to its mark at least once, the search
    # ends back at the empty trail, and each retract restored the state
    # its frame was pushed with (checked inside ``retract``)
    assert set(toy.retracted) == set(toy.snapshots)
    assert toy.retracted[-1] == 0
    assert toy.trail == [] and toy.state == [None] * SIZE


def test_toy_budget_raises_at_the_guess_past_it():
    total = toy_guesses()
    all_hits = list(Toy().search(total))
    for budget in range(total):
        hits = []
        with pytest.raises(BudgetExceededError) as err:
            for hit in Toy().search(budget):
                hits.append(hit)
        assert str(err.value) == f"spent {budget} of {budget}"
        assert err.value.budget == budget
        # the hits found before the budget ran out are a prefix of all hits
        assert hits == all_hits[:len(hits)]


def test_advance_none_before_any_guess_ends_the_search_with_no_budget():
    assert list(depth_first(3, lambda i: None, None, None, [], None, 0, None)) == []
    # nothing open: one hit, no guess
    assert list(depth_first(3, lambda i: 3, None, None, [], None, 0, None)) == [None]


# --- the gauge search against its former loop ------------------------------

def two_circle_cocycles(group):
    """Cocycles over the star cover of two disjoint circles: one value on
    a generator edge of each circle, the others at the identity."""
    cover = star_cover(build_complex(
        [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]]
    ))
    trivial = trivial_cocycle(cover, group)
    out = []
    for g, h in itertools.product(group.elements(), repeat=2):
        values = {pair: 0 for pair in trivial.nerve.keys(2)}
        values[("a", "c")], values[("d", "f")] = g, h
        out.append(validate_cocycle(cover, group, values))
    return out


def outcome(fn, c1, c2, budget):
    try:
        result = fn(c1, c2, budget=budget)
    except BudgetExceededError as exc:
        return ("budget", str(exc), exc.budget)
    return ("ok", result.equivalent, result.bridge)


GAUGE_CASES = [(name, group) for name in ("hollow_triangle", "torus", "rp2")
               for group in ("z2", "s3")] + [("two_circles", "z2"), ("two_circles", "s3")]


@pytest.mark.parametrize("name, group_name", GAUGE_CASES)
def test_gauge_search_replays_its_former_loop(name, group_name):
    """Verdict, bridge and guess count equal the former loop's on every
    ordered pair: at each budget below the least one that does not raise,
    both raise the same text with the same ``.budget``, and at that least
    budget both return the same verdict and bridge."""
    group = corpus.GROUPS[group_name]
    if name == "two_circles":
        cocycles = two_circle_cocycles(group)
    else:
        _, cocycles = monodromy_representatives(
            corpus.cached_star_cover(name)[0], group)
    verdicts = set()
    for c1, c2 in itertools.product(cocycles, repeat=2):
        for budget in itertools.count():
            want = outcome(reference.are_equivalent, c1, c2, budget)
            assert outcome(are_equivalent, c1, c2, budget) == want
            if want[0] == "ok":
                verdicts.add(want[1])
                break
    assert verdicts == {True, False}


# --- budgets every search refuses ------------------------------------------

BAD_BUDGETS = [-1, None, "3", 2.5, True, False]


def gauge_pair():
    c = trivial_cocycle(star_cover(corpus.HOLLOW_TRIANGLE), corpus.Z2)
    return c, c


def gerbe_pair():
    cover, nerve, _ = corpus.cached_star_cover("boundary_3simplex")
    data = validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in nerve.keys(2)}, {t: 0 for t in nerve.keys(3)},
    )
    return data, data


# A relation of one generator fixes it before any guess, and a bundle is
# isomorphic to itself at once: each search refuses a bad budget before
# it takes either way out.
SETTLED_HOMS = Pi1Presentation(basepoint=None, generator_edges=((0, 1),),
                               tree_edges=(), relations=((1,),))
SEARCHES = {
    "homs": lambda budget: enumerate_homs(SETTLED_HOMS, corpus.S3, budget=budget),
    "gauge": lambda budget: are_equivalent(*gauge_pair(), budget=budget),
    "bundle": lambda budget: bundle_isomorphism(
        product_bundle(corpus.EDGE, "xy"), product_bundle(corpus.EDGE, "xy"),
        budget=budget),
    "gerbe": lambda budget: gerbes_equivalent(*gerbe_pair(), budget=budget),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
def test_every_search_refuses_a_budget_that_is_no_non_negative_integer(search, budget):
    with pytest.raises(ValidationError) as err:
        SEARCHES[search](budget)
    assert str(err.value) == f"budget must be a non-negative integer, got {budget!r}"


def test_budget_zero_decides_searches_that_need_no_guess():
    assert SEARCHES["homs"](0) == [(0,)]
    b = product_bundle(corpus.EDGE, "xy")
    assert SEARCHES["bundle"](0) == {e: e for e in b.total.vertices}
    # the gauge and gerbe searches guess at least once
    for search in ("gauge", "gerbe"):
        with pytest.raises(BudgetExceededError):
            SEARCHES[search](0)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("verb", ["cocycle-equiv", "classify"])
def test_cli_refuses_a_negative_budget_as_an_input_error(tmp_path, capsys, verb):
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    if verb == "cocycle-equiv":
        doc = docio.cocycle_to_doc(trivial_cocycle(cover, corpus.Z2))
        paths = [write(tmp_path, "c.json", doc)] * 2
    else:
        paths = [write(tmp_path, "cover.json", docio.cover_to_doc(cover)),
                 write(tmp_path, "group.json", docio.group_to_doc(corpus.Z2))]
    code = cli.main([verb, "--input", *paths, "--budget", "-1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT == 2
    assert captured.out == ""
    assert "budget must be a non-negative integer, got -1" in captured.err
