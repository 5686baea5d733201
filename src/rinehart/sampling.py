"""Seeded random generators for the verification suites.

All checked identities are multilinear, so monomial samples with small
Laurent exponents and arbitrary Grassmann masks give span coverage at a
fixed degree window.  Every sampler draws from one `random.Random`, so a
seed determines the full case list; every bounded draw is `Sampler.below`,
which replays `randrange` on `getrandbits`.  Samples are one-term
containers built from parts valid by construction (`Sparse._trusted`),
not re-checked by the key hook of the public constructor.  `shifted_basis` is uniform over
the triples in its degree window (the law of drawing and rejecting
outside it), from one draw: the draw is a rank, unranked slot by slot.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .glmodules import GlModule
from .scalars import ONE, Scalar
from .smash import SmashElement
from .superpoly import Signature, SuperPoly
from .tensorqp import TensorVec
from .vectorfields import QPElement, VectorField, euler_key, t0_embed


class Sampler:
    def __init__(self, rng: random.Random, deg: int = 2):
        self.rng = rng
        self.deg = deg
        self._bits = rng.getrandbits

    def below(self, n: int, count: int = 0):
        """A uniform draw from range(n): the value `rng.randrange(n)` gives,
        leaving the same stream state, from the same rejection loop on
        `getrandbits` (k = n.bit_length() bits, redrawn while ≥ n).  The
        one bounded draw of the suites.  With a count, a list of that
        many draws, in one loop."""
        if n < 1:
            raise ValueError(f"empty range for a draw below {n}")
        k = n.bit_length()
        bits = self._bits
        if not count:
            r = bits(k)
            while r >= n:
                r = bits(k)
            return r
        out = []
        for _ in range(count):
            r = bits(k)
            while r >= n:
                r = bits(k)
            out.append(r)
        return out

    def exps(self, sig: Signature) -> tuple:
        d = self.deg
        return tuple([r - d for r in self.below(2 * d + 1, sig.nvars)])

    def pos_exps(self, sig: Signature) -> tuple:
        return tuple(self.below(self.deg + 1, sig.nvars))

    def mask(self, n: int) -> int:
        return self.below(1 << n)

    def scalar(self) -> Scalar:
        """p/d for p in -3..3 and d in 1..3, drawn in that order; 0 gives 1."""
        return _SCALARS[self.below(7) * 3 + self.below(3)]

    def monomial(self, sig: Signature, coeff: bool = True) -> SuperPoly:
        c = self.scalar() if coeff else ONE
        return SuperPoly._trusted(sig, {(self.exps(sig), self.mask(sig.n)): c})

    def poly(self, sig: Signature, terms: int = 2) -> SuperPoly:
        out = SuperPoly.zero(sig)
        for _ in range(terms):
            c = self.scalar()
            out._iadd_term((self.exps(sig), self.mask(sig.n)), c)
        return out

    def tag(self, sig: Signature, kinds: str = "dq"):
        tags = _tags(sig, kinds)
        return tags[self.below(len(tags))]

    def _field_key(self, sig: Signature, kinds: str) -> tuple:
        """The stored key (`euler_key`) of a drawn t^exps ζ_mask·tag."""
        return euler_key(sig, self.exps(sig), self.mask(sig.n), self.tag(sig, kinds))

    def field_term(self, sig: Signature, kinds: str = "dq") -> VectorField:
        return VectorField._trusted(sig, {self._field_key(sig, kinds): self.scalar()})

    def field(self, sig: Signature, terms: int = 2, kinds: str = "dq") -> VectorField:
        out = VectorField.zero(sig)
        for _ in range(terms):
            out._iadd_term(self._field_key(sig, kinds), self.scalar())
        return out

    def qp_homogeneous(self, sig: Signature) -> QPElement:
        if self.rng.random() < 0.5:
            return QPElement.from_poly(self.monomial(sig))
        return QPElement.from_field(self.field_term(sig))

    def loop_qp(self, sig: Signature) -> VectorField:
        """t_0^r ⊗ x for a drawn r, then x = `qp_homogeneous` over Ȧ,
        stored as a field over the full signature sig (`t0_embed`)."""
        r0 = self.below(2 * self.deg + 1) - self.deg
        return t0_embed(r0, self.qp_homogeneous(sig.dotted()))

    def tensor(self, sig: Signature, omega: GlModule) -> TensorVec:
        if omega.dim == 0:
            return TensorVec.zero(sig)
        key = (self.exps(sig), self.mask(sig.n), self.below(omega.dim))
        return TensorVec._trusted(sig, {key: self.scalar()})

    def loop_tensor(self, sig: Signature, omega: GlModule) -> TensorVec:
        """t_0^k ⊗ w for a drawn k, then w = `tensor` over Ȧ ⊗ Ω, stored
        over the full signature sig."""
        k = self.below(2 * self.deg + 1) - self.deg
        return t0_embed(k, self.tensor(sig.dotted(), omega))

    def smash_homogeneous(self, sig: Signature) -> SmashElement:
        """a # 1, or a # b·∂ with the b-side stored like a field term."""
        if self.rng.random() < 0.25:
            key = (self.exps(sig), self.mask(sig.n), sig.zero_exps(), 0, None)
        else:
            key = (self.exps(sig), self.mask(sig.n)) + self._field_key(sig, "dq")
        return SmashElement._trusted(sig, {key: self.scalar()})

    def x_generator(self, sig: Signature):
        """(r̄, J, ∂) avoiding the degenerate (r̄, J) = (0, ∅)."""
        while True:
            rbar = self.exps(sig)
            jmask = self.mask(sig.n)
            if any(rbar) or jmask:
                return rbar, jmask, self.tag(sig)

    def shifted_basis(self, sig: Signature, min_total: int):
        """(pos, neg, mask) powers of a shifted basis product, pos and neg
        in {0, 1, 2}^nvars, with the total degree sum(pos) + sum(neg) +
        |mask| in [min_total, min_total + 2]."""
        if min_total + 2 < 0:  # no total is negative; also keeps the slice stop ≥ 1
            raise ValueError(f"no total lies in [{min_total}, {min_total + 2}]")
        ways = _slot_ways(sig.nvars, sig.n)
        lo = max(min_total, 0)
        k = self.below(sum(ways[0][lo:min_total + 3]))
        total = lo
        while k >= ways[0][total]:
            k -= ways[0][total]
            total += 1
        vals = []
        for row in ways[1:]:
            v = 0
            while k >= row[total - v]:
                k -= row[total - v]
                v += 1
            vals.append(v)
            total -= v
        t = sig.nvars
        mask = sum(bit << j for j, bit in enumerate(vals[2 * t:]))
        return tuple(vals[:t]), tuple(vals[t:2 * t]), mask


_SCALARS = tuple(Scalar.ratio(p, d) if p else ONE
                 for p in range(-3, 4) for d in range(1, 4))


@lru_cache(maxsize=None)
def _tags(sig: Signature, kinds: str) -> tuple:
    return tuple(sig.tags(kinds))


@lru_cache(maxsize=None)
def _slot_ways(nvars: int, n: int) -> tuple:
    """ways[i][s]: how many ways slots i.. sum to s, the slots being
    2·nvars t-powers in 0..2 (pos, then neg) and n ζ bits."""
    caps = (2,) * (2 * nvars) + (1,) * n
    size = sum(caps) + 1
    rows = [(1,) + (0,) * (size - 1)]
    for cap in reversed(caps):
        prev = rows[0]
        rows.insert(0, tuple(sum(prev[s - v] for v in range(min(cap, s) + 1))
                             for s in range(size)))
    return tuple(rows)
