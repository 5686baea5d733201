"""The suite runner: the Env that builds the kernel basis, the φ images
and the induced module once per run, and the rng stream each suite
draws."""

import hashlib
import itertools
import sys
from collections import Counter

import pytest
from conftest import theta_reference

from rinehart import linalg, suites, tensorqp
from rinehart.cli import main
from rinehart.glmodules import natural_module
from rinehart.scalars import Scalar
from rinehart.suites import (
    SuiteConfig,
    _check,
    admissible_mus,
    build_env,
    run_suite,
)
from rinehart.superpoly import Signature
from rinehart.tensorqp import QPStructure, TensorVec

KERNEL_SUITES = ("phi", "annihilate", "iso")


@pytest.fixture
def counted(monkeypatch):
    """Count the calls the suites make to the kernel basis, the φ images
    and the induced module (the suites look the names up in their own
    module)."""
    calls = {"omega_kernel": 0, "phi_images": 0, "induced_gl_module": 0}
    for name in calls:
        orig = getattr(suites, name)

        def wrapper(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(suites, name, wrapper)
    return calls


def test_kernel_suites_extract_once(counted, monkeypatch):
    """One kernel basis per run, and no solve for it: the suites call
    neither the extraction nor a nullspace."""
    solves = {"omega_extract": 0, "nullspace": 0}
    for module, name in ((tensorqp, "omega_extract"), (linalg, "nullspace")):
        orig = getattr(module, name)

        def wrapper(*args, _orig=orig, _name=name):
            solves[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, wrapper)
    cfg = SuiteConfig(m=1, n=2, samples=3, seed=4, suites=KERNEL_SUITES)
    code, report = run_suite(cfg)
    assert code == 0 and report["failures"] == 0
    assert counted == {"omega_kernel": 1, "phi_images": 1, "induced_gl_module": 1}
    assert solves == {"omega_extract": 0, "nullspace": 0}


def test_build_env_computes_nothing(counted):
    env = build_env(SuiteConfig(m=1, n=2))
    assert (env._basis, env._images, env._induced) == (None, {}, None)
    assert counted == {"omega_kernel": 0, "phi_images": 0, "induced_gl_module": 0}


class _CountedStructure(QPStructure):
    """A structure that counts its ψ and φ̂ calls under its name."""

    __slots__ = ("name", "used")

    def psi_parts(self, parts, vectors):
        self.used[self.name] += 1
        return QPStructure.psi_parts(self, parts, vectors)

    def phihat_parts(self, parts, vectors):
        self.used[self.name] += 1
        return QPStructure.phihat_parts(self, parts, vectors)


def test_qp_and_equalities_act_through_the_env_structures():
    """Env holds the structures at both shifts: the qp axioms act through
    env.S1 (μ₁) and env.S (μ₂), and equalities through env.S1, so a
    structure installed in the Env is the one these suites check."""
    used_by = {}
    for name in ("qp", "equalities"):
        cfg = SuiteConfig(m=1, n=1, samples=7, seed=3, suites=(name,))
        env = build_env(cfg)
        used = Counter()
        for attr in ("S1", "S"):
            S = getattr(env, attr)
            counted = _CountedStructure(S.sig, S.omega, S.mu)
            counted.name, counted.used = attr, used
            setattr(env, attr, counted)
        results = suites.SUITES[name](cfg, env)
        assert all(r["pass"] for r in results), results
        used_by[name] = set(used)
    assert used_by == {"qp": {"S1", "S"}, "equalities": {"S1"}}


def test_iso_builds_theta_table_once_per_run(monkeypatch):
    """θ's table is built on first use, once per run, on the kernel basis,
    and both iso rows read it: one `theta_table` call per `check iso`,
    none for `build_env`, and every θ call gets that one table."""
    tables, used = [], set()
    orig_table, orig_theta = suites.theta_table, suites.theta_transport

    def table(sig, basis):
        tables.append(orig_table(sig, basis))
        return tables[-1]

    def theta(vectors, table):
        used.add(id(table))
        return orig_theta(vectors, table)

    monkeypatch.setattr(suites, "theta_table", table)
    monkeypatch.setattr(suites, "theta_transport", theta)
    env = build_env(SuiteConfig(m=1, n=2))
    assert env._theta is None and tables == []
    code, _ = run_suite(SuiteConfig(m=1, n=2, samples=3, seed=4, suites=("iso",)))
    assert code == 0
    assert len(tables) == 1 and used == {id(tables[0])}


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_induced_module_needs_no_echelon(monkeypatch, m, n):
    """At the suites' μ the kernel basis is the unit vectors 1 ⊗ e_j, so
    the induced module's solve is `solve_columns`' lookup: with `Echelon`
    refused once the kernel basis is built, Env.induced() still succeeds
    and reads Ω's own columns back."""
    env = build_env(SuiteConfig(m=m, n=n))
    basis = env.kernel()
    assert all(len(v.terms) == 1 for v in basis)

    def refused(*args, **kwargs):
        raise AssertionError("the induced module built an Echelon")

    monkeypatch.setattr(linalg, "Echelon", refused)
    assert env.induced().columns == natural_module(m, n).columns


def test_annihilate_alone_builds_no_induced_module(counted):
    run_suite(SuiteConfig(m=1, n=2, samples=2, suites=("annihilate",)))
    assert counted == {"omega_kernel": 1, "phi_images": 0, "induced_gl_module": 0}


def test_check_phi_applies_phi_operator_only_for_the_images_and_unit_action(
        counted, monkeypatch):
    """One image table serves the induced module, phi.bridge and
    phi.unit_action (at (1,2) the kernel basis is the unit vectors), and
    it applies ψ_{-∂_β} once per β, to the whole list of basis vectors,
    shared by every α."""
    minus = Counter()
    orig_psi = tensorqp.QPStructure.psi_parts

    def psi_parts(S, parts, vectors):
        frame = sys._getframe(1)
        while frame and frame.f_code.co_name != "phi_images":
            frame = frame.f_back
        (beta, e, mask, c), *more = parts
        if frame and not more and not (any(e) or mask) and c == -1:
            minus[beta, tuple(tuple(v.terms.items()) for v in vectors)] += 1
        return orig_psi(S, parts, vectors)

    monkeypatch.setattr(tensorqp.QPStructure, "psi_parts", psi_parts)
    code, report = run_suite(SuiteConfig(m=1, n=2, samples=3, seed=4, suites=("phi",)))
    assert code == 0 and report["failures"] == 0
    assert counted["phi_images"] == 1
    units = tuple(((((0,), 0, v), Scalar(1)),) for v in range(4))
    assert minus == {(beta, units): 1 for beta in range(4)}


def test_kernel_suites_twisted_calls(monkeypatch):
    """A work guard: each φ image and each ψ_{-∂_β} v is built once, and
    every ψ acts on a whole list of vectors, so the kernel suites at (2,3)
    call the ψ kernel `_twisted` at most 281 times (476 when the φ images
    and the kernel check applied ψ one vector at a time, 1570 when
    unit_action rebuilt the kernel's images and every α rebuilt
    ψ_{-∂_β} v)."""
    calls = Counter()
    orig = tensorqp._twisted

    def counted_twisted(*args):
        calls["_twisted"] += 1
        return orig(*args)

    monkeypatch.setattr(tensorqp, "_twisted", counted_twisted)
    cfg = SuiteConfig(m=2, n=3, deg=2, samples=20, seed=0, suites=KERNEL_SUITES)
    code, report = run_suite(cfg)
    assert code == 0 and report["failures"] == 0
    assert calls["_twisted"] <= 281


def test_unit_action_never_reads_the_kernel(monkeypatch):
    """phi.unit_action builds its own images when the kernel basis is not
    the unit vectors, and never asks for the kernel."""
    orig = suites.Env.kernel
    asked = Counter()

    def kernel(env):
        frame = sys._getframe(1)
        while frame:
            asked[frame.f_code.co_name] += 1
            frame = frame.f_back
        return orig(env)

    monkeypatch.setattr(suites.Env, "kernel", kernel)
    scaled = tensorqp.omega_kernel

    def doubled(S):
        return [v * Scalar(2) for v in scaled(S)]

    monkeypatch.setattr(suites, "omega_kernel", doubled)
    counts = Counter()
    orig_images = suites.phi_images

    def images(S, vectors):
        counts[len(vectors)] += 1
        return orig_images(S, vectors)

    monkeypatch.setattr(suites, "phi_images", images)
    code, report = run_suite(SuiteConfig(m=1, n=2, samples=3, seed=4, suites=("phi",)))
    assert code == 0 and report["failures"] == 0
    assert "unit_action" not in asked
    assert counts == {4: 2}


def test_unit_action_builds_each_unit_vector_once(monkeypatch):
    """phi.unit_action applies all 16 operators at (1,2) to the same dim Ω
    unit vectors 1 ⊗ e_v, built once, not once per operator."""
    built = Counter()
    orig = tensorqp.TensorVec.basis

    def recorded(*args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<listcomp>":  # a frame of its own before 3.12
            frame = frame.f_back
        built[frame.f_code.co_name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(tensorqp.TensorVec, "basis", staticmethod(recorded))
    code, report = run_suite(SuiteConfig(m=1, n=2, samples=3, seed=4, suites=("phi",)))
    assert code == 0 and report["failures"] == 0
    assert built["unit_action"] == 4


def test_failed_induced_module_fails_both_suites(monkeypatch):
    """A refused induced module is built once: the refusal is cached, and
    each check that needs the module fails with its text."""
    calls = []

    def broken(*args):
        calls.append(args)
        raise ValueError("operator does not preserve the extracted kernel")

    monkeypatch.setattr(suites, "induced_gl_module", broken)
    code, report = run_suite(SuiteConfig(m=1, n=1, samples=2, suites=("phi", "iso")))
    assert code == 1
    failed = [(c["id"], c["cases"], c["counterexample"])
              for c in report["checks"] if not c["pass"]]
    message = "operator does not preserve the extracted kernel"
    assert failed == [("phi.gl_relations", 0, message), ("iso.equivariance", 0, message)]
    assert len(calls) == 1


def test_check_driver():
    """The driver counts the verdicts of each row's draws, passes a row
    with none, and stops a failing row at its first counterexample
    without drawing again or resuming the draw."""
    draws = []

    def fails_on_third_draw():
        draws.append(None)
        if len(draws) < 3:
            yield None
            return
        yield "case 2"
        raise AssertionError("resumed past the first counterexample")

    def rows(cfg, env, s):
        return [
            ("c.all", 5, lambda: iter([None])),
            ("c.none", 4, lambda: iter([])),
            ("c.fail", 10, fails_on_third_draw),
        ]

    assert _check(SuiteConfig(), None, "c", rows) == [
        {"id": "c.all", "pass": True, "cases": 5, "counterexample": None},
        {"id": "c.none", "pass": True, "cases": 0, "counterexample": None},
        {"id": "c.fail", "pass": False, "cases": 3, "counterexample": "case 2"},
    ]
    assert len(draws) == 3


# sha256 of repr(rng.getstate()) per suite after
# check all --m 1 --n 2 --deg 2 --samples 14 --seed 0.
RNG_DIGESTS = {
    "koszul":
        "21a64cf5e67dc7b61da7d7ad0ef396d636eae3e44335f5001d16c2152e3caa7e",
    "jacobi":
        "0f295b4b1335f9c1dabd9056d1e6468edbb0af588ae08de1e694d17b13df18e1",
    "filtration":
        "81dbc72087d39a137cf681b56cb10831f44bbaf530fb837b21b0e053d46de967",
    "theta":
        "315f2d31770e4364f9ffb60f143fa2fbc7145917ba3217e4ca95d5f791a20991",
    "psi":
        "af60451c90ccace2248fa7f3b2c65c963e8ecb9e6b8e1b9a4453269f92880996",
    "centralizer":
        "ab88c48aeb16be328c7e1296170598e6ba773fc8e06caf56feba85a080d0788e",
    "qp":
        "cf37d9e5190938e5b2fbbafe1a157cda5cbf25436c4ea35079e21cd38dda39a9",
    "equalities":
        "f4db397961135ae88a9c833794e34113e2d04c87b35f4b3e5a23a5696c05da1e",
    "loop":
        "8a5902e7c8ad242deda04ae7241eb305b6ad0d9864642a60768d048c3004a8ba",
    "phi":
        "18a21b67d5cd68e12e8348b57adac18605be57f57e6fcc5a250577d152745bad",
    "annihilate":
        "5111bc775f7a283932728d9d00a0cbbfd88ef9c3e987b9ec7a473e870ef693b1",
    "iso":
        "d08e9670f5b76b931444dd426ef2373c160e0e370dbf705606f8cef34d270b55",
    "roundtrip":
        "b71d81d121b1874442a91082ad8514f0c189e568bd01e62e4f55b60ff3aa29ea",
}


def test_rng_stream_is_pinned(monkeypatch, capsys):
    """Every suite leaves its rng in the state recorded here.

    The ``--json`` report prints only pass/fail, case counts and
    counterexamples, so a passing run cannot show which cases were drawn;
    this test can.  A deliberate change to the sampler or the draw order
    (such as drawing shifted-basis triples without rejection) moves these
    values and re-records them with the reason in the change log."""
    rngs = {}
    orig = suites._rng

    def recording(cfg, name):
        rngs[name] = orig(cfg, name)
        return rngs[name]

    monkeypatch.setattr(suites, "_rng", recording)
    args = ["check", "all", "--m", "1", "--n", "2", "--deg", "2",
            "--samples", "14", "--seed", "0", "--json"]
    assert main(args) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()
               for name, rng in rngs.items()}
    assert digests == RNG_DIGESTS


def _box_images(m, n):
    """θ of every domain vector of iso.bijective, as the suite builds it."""
    _, mu = admissible_mus(m, n)
    S = QPStructure(Signature(m, n, False), natural_module(m, n), mu)
    basis = tensorqp.omega_kernel(S)
    return [theta_reference(TensorVec.basis(S.sig, exps, mask, j), basis).terms
            for exps in itertools.product(range(-1, 2), repeat=m)
            for mask in range(1 << n) for j in range(len(basis))]


@pytest.fixture
def ranked(monkeypatch):
    """(number of vectors, rank) of every `linalg.rank` call."""
    calls = []
    rank = linalg.rank

    def recorded(vectors):
        vectors = list(vectors)
        calls.append((len(vectors), rank(vectors)))
        return calls[-1][1]

    monkeypatch.setattr(linalg, "rank", recorded)
    return calls


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_bijective_block_ranks_sum_to_the_box_rank(ranked, m, n):
    """iso.bijective's per-block ranks add up to the rank of the whole box
    in one Echelon, which is the number of cases it reports."""
    code, report = run_suite(SuiteConfig(m=m, n=n, deg=2, samples=2, suites=("iso",)))
    assert code == 0
    images = _box_images(m, n)
    ech = linalg.Echelon()
    whole = sum(1 for v in images if ech.add(v)[0])
    cases = {c["id"]: c["cases"] for c in report["checks"]}["iso.bijective"]
    assert sum(rk for _, rk in ranked) == whole == cases == len(images)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3)])
def test_bijective_ranks_once_per_block(ranked, m, n):
    """One rank per t-exponent in {-1, 0, 1}^m, each over 2^n·dim Ω images."""
    code, _ = run_suite(SuiteConfig(m=m, n=n, deg=2, samples=2, suites=("iso",)))
    assert code == 0
    dim = natural_module(m, n).dim
    assert [size for size, _ in ranked] == [(1 << n) * dim] * 3 ** m


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3)])
def test_bijective_blocks_take_the_disjoint_shortcut(monkeypatch, m, n):
    """Each block's images t^e ζ_M ⊗ e_j are single terms at distinct
    keys, so every per-block rank counts them without an Echelon."""
    inside, built = [], []
    rank = linalg.rank

    class Watched(linalg.Echelon):
        __slots__ = ()

        def __init__(self, track=False):
            built.append(bool(inside))
            super().__init__(track)

    def watched(vectors):
        inside.append(True)
        try:
            return rank(vectors)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "Echelon", Watched)
    monkeypatch.setattr(linalg, "rank", watched)
    code, _ = run_suite(SuiteConfig(m=m, n=n, deg=2, samples=2, suites=("iso",)))
    assert code == 0
    assert built and True not in built
