"""Property-based tests (hypothesis) on the HOCL core.

The invariants checked here are the ones GinFlow relies on:

* reduction terminates and is *confluent* for the getMax program — the final
  solution is the same whatever the input order;
* reduction never invents or loses atoms other than through rule firings
  (mass balance of the getMax rule: each reaction removes exactly one atom);
* multiset equality is order-insensitive and copy is faithful;
* one-shot rules fire at most once regardless of how many matches exist.
"""

from hypothesis import given, settings, strategies as st

from repro.hocl import Compare, IntAtom, Multiset, Ref, Rule, Var, reduce_solution


def max_rule():
    return Rule(
        "max",
        [Var("x", kind="int"), Var("y", kind="int")],
        [Ref("x")],
        condition=Compare(">=", Ref("x"), Ref("y")),
    )


integers = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(integers)
def test_getmax_reduces_to_maximum(values):
    solution = Multiset(values + [max_rule()])
    report = reduce_solution(solution)
    assert report.inert
    remaining = [a.value for a in solution.atoms() if isinstance(a, IntAtom)]
    assert remaining == [max(values)]


@settings(max_examples=60, deadline=None)
@given(integers)
def test_getmax_reaction_count_is_mass_balance(values):
    solution = Multiset(values + [max_rule()])
    report = reduce_solution(solution)
    # each reaction consumes exactly one integer
    assert report.reactions == len(values) - 1


@settings(max_examples=40, deadline=None)
@given(integers, st.randoms(use_true_random=False))
def test_getmax_confluent_under_permutation(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    first = Multiset(values + [max_rule()])
    second = Multiset(shuffled + [max_rule()])
    reduce_solution(first)
    reduce_solution(second)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.text(max_size=5)), max_size=20))
def test_multiset_copy_equals_original(values):
    original = Multiset(values)
    clone = original.copy()
    assert clone == original
    clone.add(12345)
    assert clone != original or 12345 in original


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=20))
def test_one_shot_rule_fires_exactly_once(values):
    consumed = []
    rule = Rule(
        "one",
        [Var("x", kind="int")],
        [],
        one_shot=True,
        effect=lambda x: consumed.append(x),
    )
    solution = Multiset(values + [rule])
    reduce_solution(solution)
    assert len(consumed) == 1
    remaining = [a for a in solution.atoms() if isinstance(a, IntAtom)]
    assert len(remaining) == len(values) - 1


@settings(max_examples=60, deadline=None)
@given(integers)
def test_multiset_equality_order_insensitive(values):
    assert Multiset(values) == Multiset(list(reversed(values)))


@settings(max_examples=60, deadline=None)
@given(integers)
def test_size_recursive_at_least_len(values):
    solution = Multiset(values)
    assert solution.size_recursive() == len(solution)
