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
from rinehart.tensorqp import TensorVec
from rinehart.vectorfields import QPElement, VectorField


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
@pytest.mark.parametrize("min_total", [1, 2], ids=["1-None", "2-None"])
def test_ranks_map_one_to_one_onto_the_admissible_triples(m, n, includes_t0, min_total):
    sig = Signature(m, n, includes_t0)
    expected = admissible(sig, min_total, min_total + 2)
    sampler = StubSampler()
    drawn = []
    for k in range(len(expected)):
        sampler.k = k
        drawn.append(sampler.shifted_basis(sig, min_total))
    assert len(set(drawn)) == len(drawn)
    assert set(drawn) == expected
    # one draw per triple, each over the whole admissible set
    assert sampler.calls == [len(expected)] * len(expected)


def test_window_past_the_largest_total_is_clipped():
    """The window [min_total, min_total + 2] is cut to the totals 0..5
    that (pos, neg, mask) reach at one t and one ζ."""
    sig = Signature(1, 1, False)
    sampler = StubSampler()
    for min_total, lo, hi in ((-2, 0, 0), (-1, 0, 1), (4, 4, 5)):
        window = admissible(sig, lo, hi)
        drawn = set()
        for k in range(len(window)):
            sampler.k = k
            drawn.add(sampler.shifted_basis(sig, min_total))
        assert drawn == window
    # an empty window raises instead of drawing forever
    with pytest.raises(ValueError):
        Sampler(random.Random(0)).shifted_basis(sig, 6)


@pytest.mark.parametrize("min_total", range(-10, -2))
def test_a_window_below_total_zero_raises_before_any_draw(min_total):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="no total lies in"):
        Sampler(rng).shifted_basis(Signature(1, 1, False), min_total)
    assert rng.getstate() == state


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
        key = (s.exps(sig), s.mask(sig.n), s.tag(sig, kinds))
        return VectorField(sig, {key: s.scalar()})

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
        r = self._loop_exp()
        x = self.qp_homogeneous(sig.dotted())
        return VectorField(sig, {((r,) + e, m, tag): c for (e, m, tag), c in x.terms.items()})

    def tensor(self, sig, omega):
        s = self.s
        return TensorVec.basis(sig, s.exps(sig), s.mask(sig.n), s.below(omega.dim),
                               s.scalar())

    def loop_tensor(self, sig, omega):
        r = self._loop_exp()
        w = self.tensor(sig.dotted(), omega)
        return TensorVec(sig, {((r,) + e, m, idx): c for (e, m, idx), c in w.terms.items()})

    def smash_homogeneous(self, sig):
        s = self.s
        if s.rng.random() < 0.25:
            key = (s.exps(sig), s.mask(sig.n), sig.zero_exps(), 0, None)
        else:
            key = (s.exps(sig), s.mask(sig.n), s.exps(sig), s.mask(sig.n), s.tag(sig))
        return SmashElement(sig, {key: s.scalar()})


def stored(x):
    """Type, signature and stored (key, coefficient) pairs in order."""
    assert all(type(c) is Scalar and c for c in x.terms.values())
    return type(x), x.sig, list(x.terms.items())


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
        draws += [("smash_homogeneous", (sig,)), ("loop_qp", (sig,)),
                  ("loop_tensor", (sig, omega))]
    else:
        draws.append(("qp_homogeneous", (sig,)))
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


@pytest.mark.parametrize("deg", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_exps_replay_successive_randrange_draws(seed, deg):
    """`exps` and `pos_exps` take their nvars values in one loop: the values
    of nvars successive `randrange` calls, leaving the same stream state."""
    ours, ref = random.Random(seed), random.Random(seed)
    sampler = Sampler(ours, deg)
    for sig in (Signature(1, 1), Signature(2, 3, False), Signature(4, 1)):
        for _ in range(20):
            assert sampler.exps(sig) == tuple(
                ref.randrange(2 * deg + 1) - deg for _ in range(sig.nvars))
            assert sampler.pos_exps(sig) == tuple(
                ref.randrange(deg + 1) for _ in range(sig.nvars))
            assert ours.getstate() == ref.getstate()
    for n in (1, 2, 3, 5, 8, 9, 2 ** 40 + 1):
        assert sampler.below(n, 6) == [ref.randrange(n) for _ in range(6)]
        assert ours.getstate() == ref.getstate()
