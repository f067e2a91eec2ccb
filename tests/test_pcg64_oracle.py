"""The pure-Python PCG64 of ``repro.simkernel.randomness`` held to numpy itself.

numpy left the run path; it stays here as the oracle.  ``PCG64(seed)`` must be
``numpy.random.default_rng(seed)`` bit for bit on the three draws the package
makes — ``random()``, ``uniform(lo, hi, n)``, ``permutation(items)`` — in any
interleaving (a 32-bit draw leaves half a word buffered across 64-bit ones),
for any non-negative seed (entropy of one to many 32-bit words).  Floats are
compared with ``==``.  The same property, run on seeded mutants of the
generator, must fail: a differential that cannot tell them apart holds nothing.
"""

import os

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.simkernel import randomness
from repro.simkernel.randomness import PCG64
from repro.workflow.montage import _PROJECTION_RANGE, _projection_durations, montage_workflow

np = pytest.importorskip("numpy")

FULL = bool(os.environ.get("GINFLOW_FULL"))
EXAMPLES = 1000 if FULL else 150

# ------------------------------------------------------------------ programs
_bounds = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted)
_draws = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("uniform"), _bounds, st.integers(0, 40)),
    st.tuples(st.just("permutation"), st.one_of(st.integers(0, 70), st.integers(0, 5000))),
)
_programs = st.lists(_draws, min_size=1, max_size=8)
_seeds = st.one_of(st.integers(0, 2**32), st.integers(0, 2**128 - 1), st.integers(2**128, 2**200))


def _run(generator, program, as_list):
    out = []
    for draw, *arguments in program:
        if draw == "random":
            out.append(generator.random())
        elif draw == "uniform":
            (low, high), count = arguments
            out.append(as_list(generator.uniform(low, high, count)))
        else:
            out.append(as_list(generator.permutation(range(arguments[0]))))
    return out


def differential(generator_class, examples=EXAMPLES):
    """The property ``generator_class(seed)`` ≡ ``default_rng(seed)``, as a callable test."""

    @settings(
        max_examples=examples, deadline=None, database=None, derandomize=True,
        phases=[Phase.explicit, Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(seed=_seeds, program=_programs)
    def holds(seed, program):
        expected = _run(np.random.default_rng(seed), program, lambda values: values.tolist())
        assert _run(generator_class(seed), program, list) == expected

    return holds


class TestAgainstNumpy:
    def test_same_draws_in_any_interleaving(self):
        differential(PCG64)()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 + 7, 2**128 - 1, 2**128, 2**300 + 11])
    def test_entropy_word_boundaries(self, seed):
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        assert [ours.random() for _ in range(5)] == theirs.random(5).tolist()

    def test_a_32_bit_draw_buffers_its_high_half_across_64_bit_draws(self):
        ours, theirs = PCG64(9), np.random.default_rng(9)
        for _ in range(50):
            # one odd-length run of 32-bit draws, then a 64-bit draw, then the buffered half is used
            assert ours.permutation(range(4)) == theirs.permutation(4).tolist()
            assert ours.random() == theirs.random()

    def test_a_numpy_integer_seeds_like_the_int_it_is(self):
        assert PCG64(np.int64(12)).random() == PCG64(12).random() == np.random.default_rng(12).random()

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None, 2.0])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused_by_name(self, seed):
        with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got "):
            PCG64(seed)


# ------------------------------------------------------------------- mutants
class RotationOffByOne(PCG64):
    def _next64(self):
        state = self._state = (self._state * randomness._MULTIPLIER + self._inc) & randomness._MASK128
        word = state >> 64 ^ state & randomness._MASK64
        rotation = (state >> 122) + 1 & 63
        return (word >> rotation | word << 64 - rotation) & randomness._MASK64


class DroppedHighHalf(PCG64):
    def _next32(self):
        return self._next64() & randomness._MASK32


class HighHalfFirst(PCG64):
    def _next32(self):
        if self._half is not None:
            return super()._next32()
        word = self._next64()
        self._half = word & randomness._MASK32
        return word >> 32


class FiftyTwoBitMantissa(PCG64):
    def random(self):
        return (self._next64() >> 12) * 2.0**-52


class ModuloForMaskedRejection(PCG64):
    def permutation(self, items):
        shuffled = list(items)
        for i in range(len(shuffled) - 1, 0, -1):
            j = self._next32() % (i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        return shuffled


class ShuffleFromTheBottom(PCG64):
    def permutation(self, items):
        shuffled = list(items)
        for i in range(1, len(shuffled)):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        return shuffled


class UniformScaledByHigh(PCG64):
    def uniform(self, low, high, count):
        return [low + high * self.random() for _ in range(count)]


class EntropyCutAtTwoWords(PCG64):
    def __init__(self, seed):
        super().__init__(seed & randomness._MASK64)


class FirstStepSkipped(PCG64):
    def __init__(self, seed):
        super().__init__(seed)
        s0, s1, _s2, _s3 = randomness._seed_words(seed)
        self._state = s0 << 64 | s1
        self._next64()


MUTANTS = [
    RotationOffByOne, DroppedHighHalf, HighHalfFirst, FiftyTwoBitMantissa, ModuloForMaskedRejection,
    ShuffleFromTheBottom, UniformScaledByHigh, EntropyCutAtTwoWords, FirstStepSkipped,
]


class TestSeededMutantsDie:
    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__)
    def test_the_differential_tells_it_from_numpy(self, mutant):
        with pytest.raises(AssertionError):
            differential(mutant, examples=150)()


# ----------------------------------------------------------------- durations
def numpy_projection_durations(count, seed):
    """``repro.workflow.montage._projection_durations`` as it was written on numpy."""
    rng = np.random.default_rng(seed)
    low, high = _PROJECTION_RANGE
    base = np.linspace(low, high, count)
    jitter = rng.uniform(-5.0, 5.0, size=count)
    durations = np.clip(base + jitter, low, high)
    durations[-1] = high  # pin the longest projection
    return rng.permutation(durations)


class TestMontageDurations:
    @pytest.mark.parametrize("count", [1, 2, 3, 108, 498, 1997])
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 11, 37, 2**40 + 3])
    def test_equal_to_the_numpy_formulation(self, count, seed):
        assert _projection_durations(count, seed) == numpy_projection_durations(count, seed).tolist()

    def test_the_published_workflow_is_unchanged(self):
        durations = [task.duration for task in montage_workflow(seed=1)]
        assert all(type(duration) is float for duration in durations)
        assert durations[2:110] == numpy_projection_durations(108, 1).tolist()
