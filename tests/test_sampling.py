"""Exact tests of the shifted-basis sampler: no statistics.

`Sampler.shifted_basis` makes one `rng.randrange(N)` over the N
admissible (pos, neg, mask) triples and unranks it.  A stub rng that
returns every k in [0, N) once must then produce every admissible triple
exactly once, which is the uniform law of drawing and rejecting.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rinehart.sampling import Sampler
from rinehart.scalars import Scalar
from rinehart.superpoly import Signature


class StubRng:
    """Answers every `randrange(N)` with `k` and records each N asked."""

    def __init__(self):
        self.k = 0
        self.calls = []

    def randrange(self, n):
        self.calls.append(n)
        return self.k


def admissible(sig, lo, hi):
    powers = list(itertools.product(range(3), repeat=sig.nvars))
    return {
        (pos, neg, mask)
        for pos in powers for neg in powers for mask in range(1 << sig.n)
        if lo <= sum(pos) + sum(neg) + mask.bit_count() <= hi
    }


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 3)])
@pytest.mark.parametrize("includes_t0", [True, False])
@pytest.mark.parametrize("min_total,max_total", [(1, None), (2, None), (2, 5), (0, 1)])
def test_ranks_map_one_to_one_onto_the_admissible_triples(
        m, n, includes_t0, min_total, max_total):
    sig = Signature(m, n, includes_t0)
    hi = min_total + 2 if max_total is None else max_total
    expected = admissible(sig, min_total, hi)
    rng = StubRng()
    sampler = Sampler(rng)
    drawn = []
    for k in range(len(expected)):
        rng.k = k
        drawn.append(sampler.shifted_basis(sig, min_total, max_total))
    assert len(set(drawn)) == len(drawn)
    assert set(drawn) == expected
    # one rng call per triple, each over the whole admissible set
    assert rng.calls == [len(expected)] * len(expected)


def test_window_past_the_largest_total_is_clipped():
    sig = Signature(1, 1, False)
    everything = admissible(sig, 0, 5)
    rng = StubRng()
    sampler = Sampler(rng)
    drawn = set()
    for k in range(len(everything)):
        rng.k = k
        drawn.add(sampler.shifted_basis(sig, -3, 99))
    assert drawn == everything
    # an empty window raises instead of drawing forever
    with pytest.raises(ValueError):
        Sampler(random.Random(0)).shifted_basis(sig, 6)


class ScriptedRng:
    """Answers each `randint(a, b)` from a script and records (a, b)."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.calls = []

    def randint(self, a, b):
        self.calls.append((a, b))
        return self.answers.pop(0)


def test_scalar_is_numerator_over_denominator_with_zero_as_one():
    """`Sampler.scalar` draws p in -3..3, then d in 1..3, and returns p/d,
    or 1 when p = 0: the value of `Scalar(Fraction(p, d) or 1)`, in the
    same canonical form."""
    for p, d in itertools.product(range(-3, 4), range(1, 4)):
        rng = ScriptedRng([p, d])
        got = Sampler(rng).scalar()
        want = Scalar(Fraction(p, d) or 1)
        assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
        assert rng.calls == [(-3, 3), (1, 3)]
