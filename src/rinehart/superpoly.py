"""Sparse exact arithmetic on Laurent-Grassmann superalgebras.

The supercommutative algebra C[t_0^{±1},...,t_m^{±1}] ⊗ Λ_n (full
signature) and its t_0-free variant (dotted signature) share one
representation: a sparse map from (exponent tuple, Grassmann bitmask)
to Gaussian-rational coefficients.  Bit k-1 of a mask stands for ζ_k;
factors are kept in increasing index order and any reordering costs the
usual (-1)^inversions Koszul sign.  ∂/∂ζ_k is a left superderivation.

`Sparse` is the one container behind every free module of the package:
a term map basis key → nonzero coefficient with the shared `+ - neg`,
scalar `*`, `==` and parity split.  `SuperPoly`, `VectorField`,
`QPElement`, `SmashElement`, `TensorVec`, `LoopElement`, `LoopTensor` and
`GlMatrix` subclass it and add their key shape, constructors and the
hook `_key_parity(key, *ctx)` that `parity`/`even_odd` read.

Two term-level kernels serve every layer above, so that none of them
builds throwaway `SuperPoly` monomials.  `mono_mul` multiplies two
monomials (Koszul sign from the memoised `merge_masks`, exponents
added); `SuperPoly.__mul__`, `Sparse.left_mul` (p · Σ t^e ζ_M ⊗ label,
the algebra action on fields and tensor vectors; `left_mul_terms` takes
p's terms, so a single monomial needs no SuperPoly; `_iadd` adds one
scaled or monomial-multiplied element in place), `VectorField.apply`,
`vf_bracket`, `smash_commutator`, the quasi-Poisson and loop products
(`qp_product`, `loop_bracket`) and the `tensorqp` actions use it.
`derive_mono` applies one Euler or odd basis derivation, the stored
basis of fields and smash terms, to one monomial (on the dotted
algebra, ('d', 0) is the algebra summand's tag and gives 0);
`mono_apply` = monomial · derived monomial is the step of
`VectorField.apply`, `vf_bracket` (also the bracket of `QPElement`s)
and `smash_commutator`, and the `tensorqp` twisted action (ψ and
`shen_act`) takes its derivative terms from `derive_mono` too.  `derive`
also takes the plain d/dt_i.

`Signature` owns the gl(m+1, n) index convention: direction α ≤ m
is the Euler derivation t_α d/dt_α (tag ('d', α), even), direction
m + k is ∂/∂ζ_k (tag ('q', k), odd).  `dir_tag`, `dir_of` and
`dir_parity` map between them, `directions` is the range 0..m+n,
`gl_parity` the parity of an elementary matrix E_{α,β}, and `tags`
lists the basis tags.

Also here: the filtration S ⊇ S² ⊇ ... by powers of the ideal vanishing
at t=1, ζ=0, with an exact degree decision procedure (clear denominators
by a unit power of t, Taylor-shift to u_i = t_i - 1, read the minimal
total degree), and eigenvalue bookkeeping for the commuting families
(t_i-1)d/dt_i and ζ_k ∂/∂ζ_k.  Degrees 0 and 1, which decide most
questions, are read in one pass over the terms (`_taylor01`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from math import comb
from operator import add

from .scalars import ONE, Scalar

INFINITE = math.inf


# ---------- Grassmann bitmask helpers ----------

def mask_indices(mask: int) -> list[int]:
    """Variable numbers (1-based) present in the mask, increasing."""
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def mask_size(mask: int) -> int:
    return mask.bit_count()


@lru_cache(maxsize=1 << 12)
def merge_masks(ma: int, mb: int) -> tuple[int, int]:
    """Sign and mask of ζ_A · ζ_B.

    Returns (0, 0) when an index repeats; otherwise the sign is
    (-1)^inversions for sorting the concatenation A++B.
    """
    if ma & mb:
        return 0, 0
    sign = 1
    b = mb
    while b:
        low = b & -b
        if (ma >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign, ma | mb


def mono_mul(ea, ma: int, eb, mb: int):
    """(sign, exps, mask) of t^ea ζ_ma · t^eb ζ_mb; sign 0 when ζ's repeat."""
    if ma & mb:
        return 0, None, 0
    sign, mask = merge_masks(ma, mb)
    return sign, tuple(map(add, ea, eb)), mask


def subsets_of_mask(mask: int):
    """All submasks of `mask` (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------- Signatures ----------

class Signature:
    """Variable bookkeeping: t_0..t_m (or t_1..t_m) and ζ_1..ζ_n.  Interned
    and immutable: equal arguments give the same object, so `==` is `is`."""

    __slots__ = ("m", "n", "includes_t0", "nvars", "_hash")
    _interned: dict = {}

    def __new__(cls, m: int, n: int, includes_t0: bool = True):
        sig = cls._interned.get((m, n, includes_t0))
        if sig is None:
            if m < 1 or n < 1:
                raise ValueError("signature needs m >= 1 and n >= 1")
            sig = object.__new__(cls)
            sig.m, sig.n, sig.includes_t0 = m, n, includes_t0
            sig.nvars = m + 1 if includes_t0 else m
            sig._hash = hash((m, n, includes_t0))
            sig = cls._interned.setdefault((m, n, includes_t0), sig)
        return sig

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Signature, (self.m, self.n, self.includes_t0)

    def __repr__(self):
        return f"Signature(m={self.m}, n={self.n}, includes_t0={self.includes_t0})"

    def tvars(self) -> range:
        """Variable numbers of the even generators."""
        return range(0 if self.includes_t0 else 1, self.m + 1)

    def tpos(self, i: int) -> int:
        """Position of t_i inside exponent tuples."""
        lo = 0 if self.includes_t0 else 1
        if not lo <= i <= self.m:
            raise ValueError(f"variable t{i} outside signature")
        return i - lo

    def check_zeta(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"variable z{k} outside signature")
        return k

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def dotted(self) -> "Signature":
        return Signature(self.m, self.n, False)

    def full(self) -> "Signature":
        return Signature(self.m, self.n, True)

    # -- the gl(m+1, n) index convention --

    def dir_tag(self, alpha: int):
        """Basis derivation of direction α: ('d', α) for α ≤ m, else
        ('q', α - m).  On the dotted algebra ('d', 0) is the tag of the
        algebra summand of Ȧ ⊕ Der(Ȧ) (see `QPElement`)."""
        return ("d", alpha) if alpha <= self.m else ("q", alpha - self.m)

    def dir_of(self, tag) -> int:
        """Direction index of an Euler or odd tag; inverse of `dir_tag`."""
        kind, idx = tag
        if kind == "d":
            return idx
        if kind == "q":
            return self.m + idx
        raise ValueError(f"tag {tag!r} has no direction index")

    def dir_parity(self, alpha: int) -> int:
        return 0 if alpha <= self.m else 1

    def gl_parity(self, alpha: int, beta: int) -> int:
        """Parity of the elementary matrix E_{α,β}."""
        return self.dir_parity(alpha) ^ self.dir_parity(beta)

    def directions(self) -> range:
        """The direction (gl index) range 0..m+n."""
        return range(self.m + self.n + 1)

    def tags(self, kinds: str = "dq") -> list:
        """Basis tags of the kinds named in `kinds` ('d' Euler, 't' plain
        d/dt, 'q' odd), always in that order: random draws index it."""
        out = []
        if "d" in kinds:
            out += [("d", i) for i in self.tvars()]
        if "t" in kinds:
            out += [("dt", i) for i in self.tvars()]
        if "q" in kinds:
            out += [("q", k) for k in range(1, self.n + 1)]
        return out


def _check_same_sig(a, b):
    if a.sig != b.sig:
        raise ValueError("signature mismatch")


# ---------- the shared sparse container ----------

class Sparse:
    """Sparse map basis key → nonzero coefficient over one signature.

    The common base of every free module here (`SuperPoly`, `VectorField`,
    `QPElement`, `SmashElement`, `TensorVec` and the loop types):
    construction with zeros dropped, termwise `+ - neg`, scalar `*`, `==`,
    and the parity split.  Subclasses fix the key shape and supply
    `_key_parity(key, *ctx)`, the parity of one basis key (ctx is passed
    through from `parity`/`even_odd`, e.g. the module parities of a
    `TensorVec`).  Instances are unhashable unless the subclass defines
    `__hash__`.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=None):
        self.sig = sig
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = Scalar.of(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def zero(cls, sig: Signature):
        return cls(sig)

    @classmethod
    def _term(cls, sig: Signature, key, c: Scalar):
        """The one-term element c·key, unchecked: `key` must have this
        type's stored shape and `c` must be a nonzero Scalar."""
        out = object.__new__(cls)
        out.sig = sig
        out.terms = {key: c}
        return out

    def _trusted(self, terms):
        """Same type and signature as self; `terms` must hold checked nonzero
        coefficients, as results of `+ - neg` and scalar `*` do."""
        out = object.__new__(type(self))
        out.sig = self.sig
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _iadd_term(self, key, c):
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new:
            self.terms[key] = new
        elif cur is not None:
            del self.terms[key]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_same_sig(self, other)
        out = self._trusted(dict(self.terms))
        for key, c in other.terms.items():
            out._iadd_term(key, c)
        return out

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_same_sig(self, other)
        out = self._trusted(dict(self.terms))
        for key, c in other.terms.items():
            out._iadd_term(key, -c)
        return out

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.of(other)
            if not s:
                return type(self)(self.sig)
            return self._trusted({k: c * s for k, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        # Scalars commute; going through self.__mul__ keeps a subclass's
        # own __mul__ the single entry point.
        return self.__mul__(other)

    def left_mul(self, p: "SuperPoly"):
        """p · self for keys (exps, mask, label): each t^e ζ_M is multiplied
        on the left by the monomials of p and keeps its label."""
        _check_same_sig(self, p)
        return self.left_mul_terms(p.terms.items())

    def left_mul_terms(self, pterms):
        """`left_mul` by the algebra element with terms ((e, M), c) in
        `pterms`, over self's signature; one monomial needs no SuperPoly."""
        out = self._trusted({})
        for mono, c in pterms:
            out._iadd(self, c, mono)
        return out

    def _iadd(self, other, c=ONE, mono=None):
        """self += c·other in place, or c·t^e ζ_M·other for mono = (e, M)
        and keys (exps, mask, label).  The inserts and cancellations are
        those of `self + other * c` (or of `self + other.left_mul_terms(
        ((mono, c),))`: one monomial maps distinct keys to distinct keys),
        in other's term order, with neither container built.  self must
        be a container the caller owns, and not other."""
        if mono is None:
            for key, cb in other.terms.items():
                self._iadd_term(key, cb if c is ONE else cb * c)
            return
        ea, ma = mono
        for (eb, mb, label), cb in other.terms.items():
            sign, exps, mm = mono_mul(ea, ma, eb, mb)
            if sign:
                cc = cb if c is ONE else c * cb
                self._iadd_term((exps, mm, label), cc if sign > 0 else -cc)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def parity(self, *ctx):
        """0 or 1 when homogeneous, None for 0 or mixed."""
        seen = {self._key_parity(key, *ctx) for key in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None

    def even_odd(self, *ctx):
        ev, od = {}, {}
        for key, c in self.terms.items():
            (od if self._key_parity(key, *ctx) else ev)[key] = c
        return type(self)(self.sig, ev), type(self)(self.sig, od)


# ---------- SuperPoly ----------

class SuperPoly(Sparse):
    """Element of the Laurent-Grassmann algebra, keyed by (exps, mask)."""

    __slots__ = ()

    @staticmethod
    def _key_parity(key) -> int:
        return mask_size(key[1]) & 1

    # -- constructors --

    @staticmethod
    def scalar(sig: Signature, c) -> "SuperPoly":
        return SuperPoly(sig, {(sig.zero_exps(), 0): Scalar.of(c)})

    @staticmethod
    def one(sig: Signature) -> "SuperPoly":
        return SuperPoly.scalar(sig, 1)

    @staticmethod
    def monomial(sig: Signature, exps, mask: int = 0, coeff=1) -> "SuperPoly":
        exps = tuple(exps)
        if len(exps) != sig.nvars:
            raise ValueError("exponent tuple has wrong length")
        return SuperPoly(sig, {(exps, mask): Scalar.of(coeff)})

    @staticmethod
    def t_var(sig: Signature, i: int, power: int = 1) -> "SuperPoly":
        exps = [0] * sig.nvars
        exps[sig.tpos(i)] = power
        return SuperPoly.monomial(sig, exps)

    @staticmethod
    def zeta(sig: Signature, k: int) -> "SuperPoly":
        sig.check_zeta(k)
        return SuperPoly.monomial(sig, sig.zero_exps(), 1 << (k - 1))

    @staticmethod
    def zeta_mask(sig: Signature, mask: int) -> "SuperPoly":
        if mask >> sig.n:
            raise ValueError("Grassmann index outside signature")
        return SuperPoly.monomial(sig, sig.zero_exps(), mask)

    # -- queries --

    def min_t_exponents(self) -> tuple[int, ...]:
        mins = [0] * self.sig.nvars
        for (exps, _mask) in self.terms:
            for p, e in enumerate(exps):
                if e < mins[p]:
                    mins[p] = e
        return tuple(mins)

    # -- arithmetic --

    def __mul__(self, other):
        if type(other) is not SuperPoly:
            return Sparse.__mul__(self, other)
        _check_same_sig(self, other)
        out = SuperPoly(self.sig)
        terms = out.terms
        for (ea, ma), ca in self.terms.items():
            for (eb, mb), cb in other.terms.items():
                sign, exps, mm = mono_mul(ea, ma, eb, mb)
                if not sign:
                    continue
                c = ca * cb if sign > 0 else -(ca * cb)
                key = (exps, mm)
                cur = terms.get(key)
                if cur is not None:
                    c = cur + c
                    if not c:
                        del terms[key]
                        continue
                terms[key] = c
        return out

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers only for unit monomials")
        out = SuperPoly.one(self.sig)
        for _ in range(power):
            out = out * self
        return out

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __repr__(self):
        from .parser import format_element

        return f"<SuperPoly {format_element(self)}>"

    # -- derivations --

    def derive(self, tag) -> "SuperPoly":
        return derive(tag, self)

    # -- signature changes --

    def embed_full(self, t0_exp: int = 0) -> "SuperPoly":
        """View a dotted element inside the full algebra times t_0^k."""
        if self.sig.includes_t0:
            raise ValueError("already in the full signature")
        full = self.sig.full()
        return SuperPoly(
            full,
            {((t0_exp,) + exps, mask): c for (exps, mask), c in self.terms.items()},
        )

    def t0_slices(self) -> dict[int, "SuperPoly"]:
        """Split a full-signature element by its t_0 exponent."""
        if not self.sig.includes_t0:
            raise ValueError("needs the full signature")
        dotted = self.sig.dotted()
        out: dict[int, SuperPoly] = {}
        for (exps, mask), c in self.terms.items():
            sl = out.setdefault(exps[0], SuperPoly.zero(dotted))
            sl._iadd_term((exps[1:], mask), c)
        return out


def derive(tag, f: SuperPoly) -> SuperPoly:
    """Apply a basis derivation.

    Tags: ('d', i) is the Euler derivation t_i d/dt_i, ('dt', i) is the
    plain d/dt_i, ('q', k) is the left superderivation ∂/∂ζ_k.
    """
    kind, idx = tag
    sig = f.sig
    out = SuperPoly.zero(sig)
    if kind == "d":
        p = sig.tpos(idx)
        for (exps, mask), c in f.terms.items():
            if exps[p]:
                out._iadd_term((exps, mask), c * exps[p])
    elif kind == "dt":
        p = sig.tpos(idx)
        for (exps, mask), c in f.terms.items():
            e = exps[p]
            if e:
                shifted = exps[:p] + (e - 1,) + exps[p + 1:]
                out._iadd_term((shifted, mask), c * e)
    elif kind == "q":
        sig.check_zeta(idx)
        bit = 1 << (idx - 1)
        for (exps, mask), c in f.terms.items():
            if mask & bit:
                below = mask & (bit - 1)
                sign = -1 if below.bit_count() & 1 else 1
                out._iadd_term((exps, mask ^ bit), c * sign)
    else:
        raise ValueError(f"unknown derivation tag {tag!r}")
    return out


def derive_mono(tag, sig: Signature, exps, mask: int):
    """(factor, exps, mask) with tag(t^exps ζ_mask) = factor · t^exps' ζ_mask'
    for an Euler or odd tag, the stored basis of fields and smash terms.

    The factor is an int, 0 when the derivation kills the monomial.  On a
    t_0-free signature ('d', 0), the tag of the algebra summand of
    Ȧ ⊕ Der(Ȧ), is t_0 d/dt_0 and kills every monomial.
    """
    kind, idx = tag
    if kind == "d":
        if idx or sig.includes_t0:
            return exps[sig.tpos(idx)], exps, mask
        return 0, exps, mask
    if kind == "q":
        sig.check_zeta(idx)
        bit = 1 << (idx - 1)
        if not mask & bit:
            return 0, exps, mask
        sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
        return sign, exps, mask ^ bit
    raise ValueError(f"unknown derivation tag {tag!r}")


def mono_apply(tag, sig: Signature, ea, ma: int, eb, mb: int):
    """(factor, exps, mask) of t^ea ζ_ma · tag(t^eb ζ_mb); factor 0 when
    it vanishes."""
    f, e, m = derive_mono(tag, sig, eb, mb)
    if f:
        sign, e, m = mono_mul(ea, ma, e, m)
        return f * sign, e, m
    return 0, e, m


# ---------- Filtration by the ideal vanishing at t=1, ζ=0 ----------

@lru_cache(maxsize=256)
def _binom_row(e: int) -> tuple[int, ...]:
    return tuple(comb(e, j) for j in range(e + 1))


def shifted_form(f: SuperPoly) -> dict:
    """Rewrite in u_i = t_i - 1; needs nonnegative exponents."""
    out: dict = {}
    for (exps, mask), c in f.terms.items():
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent: clear denominators first")
        rows = [_binom_row(e) for e in exps]
        for js in _iproduct(*(range(e + 1) for e in exps)):
            w = 1
            for row, j in zip(rows, js):
                w *= row[j]
            key = (js, mask)
            cw = c if w == 1 else c * w
            cur = out.get(key)
            new = cw if cur is None else cur + cw
            if new:
                out[key] = new
            elif cur is not None:
                del out[key]
    return out


def _cleared(f: SuperPoly) -> SuperPoly:
    """Multiply by the unit t^N that clears negative exponents.

    t^N ≡ 1 mod S, so membership in every S^ℓ is unchanged.
    """
    mins = f.min_t_exponents()
    if not any(mins):
        return f
    shift = tuple(-e for e in mins)
    return f * SuperPoly.monomial(f.sig, shift)


def _taylor01(f: SuperPoly):
    """Constant and degree-one Taylor data of f at t = 1, ζ = 0.

    Returns (const, lin_t, lin_z): t^e ζ_M · c adds c to const and c·e_p
    to lin_t[p] (the u_p = t_p - 1 coefficient) when M = ∅, and c to
    lin_z[k-1] when M = {k}; larger M lie in S².  Negative exponents are
    fine: the u-expansion of t^e starts 1 + Σ e_p u_p for every integer
    e.  When const = 0 these are exactly the degree-one data of the
    cleared form t^N f, whose u_p coefficients shift by N_p · const.
    """
    zero = Scalar(0)
    const = zero
    lin_t = [zero] * f.sig.nvars
    lin_z = [zero] * f.sig.n
    for (exps, mask), c in f.terms.items():
        if not mask:
            const = const + c
            for p, e in enumerate(exps):
                if e:
                    lin_t[p] = lin_t[p] + (c if e == 1 else c * e)
        elif not mask & (mask - 1):
            k = mask.bit_length() - 1
            lin_z[k] = lin_z[k] + c
    return const, lin_t, lin_z


def filt_degree(f: SuperPoly):
    """Largest ℓ with f ∈ S^ℓ; 0 if f ∉ S, math.inf for f = 0."""
    if f.is_zero():
        return INFINITE
    const, lin_t, lin_z = _taylor01(f)
    if const:
        return 0
    if any(lin_t) or any(lin_z):
        return 1
    sf = shifted_form(_cleared(f))
    return min(sum(ue) + mask_size(mask) for (ue, mask) in sf)


def mods2_linear(f: SuperPoly) -> tuple[dict, dict]:
    """Degree-one data of f modulo S²: ({t_i: c}, {ζ_k: c}).

    Requires f ∈ S (the constant Taylor term must vanish).
    """
    const, lin_t, lin_z = _taylor01(f)
    if const:
        raise ValueError("element is not in the vanishing ideal")
    return (
        {i: c for i, c in zip(f.sig.tvars(), lin_t) if c},
        {k: c for k, c in enumerate(lin_z, 1) if c},
    )


# ---------- Weights under (t_i-1)d/dt_i and ζ_k ∂/∂ζ_k ----------

class WeightVector:
    """Eigenvalue vectors: hprime indexed along sig.tvars(), h along ζ's;
    equal and hashed by value."""

    __slots__ = ("hprime", "h")

    def __init__(self, hprime: tuple, h: tuple):
        self.hprime, self.h = hprime, h

    def __eq__(self, other):
        return (type(other) is WeightVector
                and (self.hprime, self.h) == (other.hprime, other.h))

    def __hash__(self):
        return hash((self.hprime, self.h))

    def __repr__(self):
        return f"WeightVector(hprime={self.hprime!r}, h={self.h!r})"

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            tuple(a + b for a, b in zip(self.hprime, other.hprime)),
            tuple(a + b for a, b in zip(self.h, other.h)),
        )

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            tuple(a - b for a, b in zip(self.hprime, other.hprime)),
            tuple(a - b for a, b in zip(self.h, other.h)),
        )


def eps(sig: Signature, i: int) -> WeightVector:
    hp = [0] * sig.nvars
    hp[sig.tpos(i)] = 1
    return WeightVector(tuple(hp), (0,) * sig.n)


def delta(sig: Signature, k: int) -> WeightVector:
    sig.check_zeta(k)
    h = [0] * sig.n
    h[k - 1] = 1
    return WeightVector((0,) * sig.nvars, tuple(h))


def delta_of_mask(sig: Signature, mask: int) -> WeightVector:
    h = [0] * sig.n
    for k in mask_indices(mask):
        h[k - 1] = 1
    return WeightVector((0,) * sig.nvars, tuple(h))


def weight_of_poly(f: SuperPoly) -> WeightVector:
    """Joint eigenvalue vector of a (t-1)/ζ-homogeneous polynomial."""
    if f.is_zero():
        raise ValueError("the zero element has no weight")
    if any(e < 0 for e in f.min_t_exponents()):
        raise ValueError("not homogeneous for the shifted Euler family")
    keys = set(shifted_form(f))
    if len(keys) != 1:
        raise ValueError("not homogeneous for the shifted Euler family")
    (ue, mask), = keys
    return WeightVector(ue, delta_of_mask(f.sig, mask).h)


# ---------- Shifted-basis products and the plus-part rewrite ----------

@lru_cache(maxsize=256)
def _laurent_factor(p: int, s: int) -> tuple:
    """(t-1)^p (t^{-1}-1)^s as (exponent, int coefficient) pairs:
    Σ_{a,b} C(p,a) C(s,b) (-1)^{p-a+s-b} t^{a-b}, a and b descending."""
    out: dict = {}
    for a, b in _iproduct(range(p, -1, -1), range(s, -1, -1)):
        c = comb(p, a) * comb(s, b) * (-1) ** (p - a + s - b)
        out[a - b] = out.get(a - b, 0) + c
    return tuple(out.items())


def shift_basis(sig: Signature, pos, neg, mask: int = 0) -> SuperPoly:
    """Expand Π(t_i-1)^{pos_i} · Π(t_i^{-1}-1)^{neg_i} · ζ_mask exactly."""
    if not len(pos) == len(neg) == sig.nvars:
        raise ValueError("exponent tuple has wrong length")
    if mask >> sig.n:
        raise ValueError("Grassmann index outside signature")
    out = SuperPoly(sig)
    # One term per combination: the exponent tuples differ and no
    # coefficient is 0, so the terms are stored without merging.
    for combo in _iproduct(*map(_laurent_factor, pos, neg)):
        exps, coeffs = zip(*combo)
        out.terms[(exps, mask)] = Scalar(math.prod(coeffs))
    return out


def splus_part(sig: Signature, pos, neg, mask: int, cutoff: int) -> SuperPoly:
    """Nonnegative-power component of a shifted basis product.

    Rewrites each (t_j^{-1}-1)^r as (1-t_j)^r plus deeper terms and keeps
    iterating; whatever is dropped lies in S^cutoff, so the input minus
    the returned value has filtration degree >= cutoff.
    """
    out = SuperPoly.zero(sig)
    stack = [(tuple(pos), tuple(neg), ONE)]
    while stack:
        p, s, c = stack.pop()
        if not any(s):
            out += shift_basis(sig, p, s, mask) * c
            continue
        if sum(p) + sum(s) + mask_size(mask) >= cutoff:
            continue
        j = next(q for q, sq in enumerate(s) if sq)
        r = s[j]
        p2 = p[:j] + (p[j] + r,) + p[j + 1:]
        sgn = -1 if r & 1 else 1
        stack.append((p2, s[:j] + (0,) + s[j + 1:], c * sgn))
        for i in range(1, r + 1):
            stack.append((p2, s[:j] + (i,) + s[j + 1:], c * (comb(r, i) * sgn)))
    return out
