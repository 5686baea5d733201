"""Exact tests of the sampler: no statistics.

`Sampler.below(n)`, the one bounded draw, must give the value and leave
the stream state of `random.Random.randrange(n)`.  `Sampler.shifted_basis`
makes one `below(N)` over the N admissible (pos, neg, mask) triples and
unranks it.  A stub that returns every k in [0, N) once must then produce
every admissible triple exactly once, which is the uniform law of drawing
and rejecting.  The sampled elements, built as one-term containers
without re-validation, must equal the ones the public constructors build
from the same draws.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rinehart.glmodules import natural_module
from rinehart.sampling import Sampler
from rinehart.scalars import Scalar
from rinehart.smash import SmashElement
from rinehart.superpoly import Signature, SuperPoly
from rinehart.tensorqp import LoopTensor, TensorVec
from rinehart.vectorfields import LoopElement, QPElement, VectorField


class StubSampler(Sampler):
    """Answers every `below(N)` with `k` and records each N asked."""

    def __init__(self):
        super().__init__(random.Random(0))
        self.k = 0
        self.calls = []

    def below(self, n):
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
    sampler = StubSampler()
    drawn = []
    for k in range(len(expected)):
        sampler.k = k
        drawn.append(sampler.shifted_basis(sig, min_total, max_total))
    assert len(set(drawn)) == len(drawn)
    assert set(drawn) == expected
    # one draw per triple, each over the whole admissible set
    assert sampler.calls == [len(expected)] * len(expected)


def test_window_past_the_largest_total_is_clipped():
    sig = Signature(1, 1, False)
    everything = admissible(sig, 0, 5)
    sampler = StubSampler()
    drawn = set()
    for k in range(len(everything)):
        sampler.k = k
        drawn.add(sampler.shifted_basis(sig, -3, 99))
    assert drawn == everything
    # an empty window raises instead of drawing forever
    with pytest.raises(ValueError):
        Sampler(random.Random(0)).shifted_basis(sig, 6)


class ScriptedSampler(Sampler):
    """Answers each `below(n)` from a script and records each n asked."""

    def __init__(self, answers):
        super().__init__(random.Random(0))
        self.answers = list(answers)
        self.calls = []

    def below(self, n):
        self.calls.append(n)
        return self.answers.pop(0)


def test_scalar_is_numerator_over_denominator_with_zero_as_one():
    """`Sampler.scalar` draws p in -3..3, then d in 1..3, and returns p/d,
    or 1 when p = 0: the value of `Scalar(Fraction(p, d) or 1)`, in the
    same canonical form."""
    for p, d in itertools.product(range(-3, 4), range(1, 4)):
        sampler = ScriptedSampler([p + 3, d - 1])
        got = sampler.scalar()
        want = Scalar(Fraction(p, d) or 1)
        assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
        assert sampler.calls == [7, 3]


def stream_sizes():
    """Range sizes n in [1, 2^70]: every 2^k and 2^k ± 1, and random n."""
    sizes = {n for k in range(71) for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)}
    pick = random.Random(70)
    sizes.update(pick.randrange(1, 2 ** pick.randrange(1, 71)) for _ in range(60))
    return sorted(n for n in sizes if 1 <= n <= 2 ** 70)


@pytest.mark.parametrize("seed", range(21))
def test_below_replays_randrange_value_and_state(seed):
    sizes = stream_sizes()
    random.Random(seed).shuffle(sizes)
    ours, ref = random.Random(seed), random.Random(seed)
    sampler = Sampler(ours)
    for n in sizes + sizes[::-1]:
        assert sampler.below(n) == ref.randrange(n)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_below_an_empty_range_raises_without_drawing(n):
    rng = random.Random(9)
    before = rng.getstate()
    with pytest.raises(ValueError):
        random.Random(9).randrange(n)
    with pytest.raises(ValueError):
        Sampler(rng).below(n)
    assert rng.getstate() == before


class Validated:
    """The sampler's elements built through the public, validated
    constructors from the draws of `s` (exps, mask, tag, scalar, below and
    rng.random), in the sampler's draw order."""

    def __init__(self, s: Sampler):
        self.s = s

    def _loop_exp(self):
        return self.s.below(2 * self.s.deg + 1) - self.s.deg

    def monomial(self, sig, coeff=True):
        s = self.s
        c = s.scalar() if coeff else 1
        return SuperPoly.monomial(sig, s.exps(sig), s.mask(sig.n), c)

    def poly(self, sig, terms=2):
        out = SuperPoly.zero(sig)
        for _ in range(terms):
            out += self.monomial(sig)
        return out

    def field_term(self, sig, kinds="dq"):
        s = self.s
        return VectorField.term(sig, s.exps(sig), s.mask(sig.n), s.tag(sig, kinds),
                                s.scalar())

    def field(self, sig, terms=2, kinds="dq"):
        out = VectorField.zero(sig)
        for _ in range(terms):
            out += self.field_term(sig, kinds)
        return out

    def qp_homogeneous(self, sig):
        if self.s.rng.random() < 0.5:
            return QPElement.from_poly(self.monomial(sig))
        return QPElement.from_field(self.field_term(sig))

    def loop_qp(self, sig):
        return LoopElement.wrap(self._loop_exp(), self.qp_homogeneous(sig))

    def tensor(self, sig, omega):
        s = self.s
        return TensorVec.basis(sig, s.exps(sig), s.mask(sig.n), s.below(omega.dim),
                               s.scalar())

    def loop_tensor(self, sig, omega):
        return LoopTensor.wrap(self._loop_exp(), self.tensor(sig, omega))

    def smash_homogeneous(self, sig):
        s = self.s
        if s.rng.random() < 0.25:
            return SmashElement.a_unit(sig, s.exps(sig), s.mask(sig.n), s.scalar())
        return SmashElement.a_tensor(sig, s.exps(sig), s.mask(sig.n), s.exps(sig),
                                     s.mask(sig.n), s.tag(sig), s.scalar())


def stored(x):
    """Type, signature and stored (key, coefficient) pairs in order, nested
    elements (loop values) opened up."""
    items = []
    for key, c in x.terms.items():
        if isinstance(c, (QPElement, TensorVec)):
            c = stored(c)
        else:
            assert type(c) is Scalar and c
        items.append((key, c))
    return type(x), x.sig, items


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 3)])
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("deg", [1, 2, 3])
@pytest.mark.parametrize("kinds", ["dq", "dtq"])
def test_sampled_elements_equal_the_validated_constructions(m, n, full, deg, kinds):
    sig = Signature(m, n, full)
    omega = natural_module(m, n)
    draws = [
        ("monomial", (sig,)),
        ("monomial", (sig, False)),
        ("poly", (sig, 3)),
        ("field_term", (sig, kinds)),
        ("field", (sig, 3, kinds)),
        ("tensor", (sig, omega)),
    ]
    if full:
        draws.append(("smash_homogeneous", (sig,)))
    else:
        draws += [("qp_homogeneous", (sig,)), ("loop_qp", (sig,)),
                  ("loop_tensor", (sig, omega))]
    seed = f"{m}:{n}:{full}:{deg}:{kinds}"
    fast = Sampler(random.Random(seed), deg)
    ref = Validated(Sampler(random.Random(seed), deg))
    for _ in range(25):
        for name, args in draws:
            got = getattr(fast, name)(*args)
            want = getattr(ref, name)(*args)
            assert got == want
            assert stored(got) == stored(want)
    assert fast.rng.getstate() == ref.s.rng.getstate()
