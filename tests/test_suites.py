"""The suite runner: its per-μ cache of the kernel basis, the φ images
and the induced module, and the rng stream each suite draws."""

import hashlib
import sys
from collections import Counter

import pytest

from rinehart import linalg, suites, tensorqp
from rinehart.cli import main
from rinehart.suites import CheckResult, SuiteConfig, _check, build_env, run_suite

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
    """One kernel basis per μ, and no solve for it: the suites call
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
    assert env.cache == {}
    assert counted == {"omega_kernel": 0, "phi_images": 0, "induced_gl_module": 0}


def test_annihilate_alone_builds_no_induced_module(counted):
    run_suite(SuiteConfig(m=1, n=2, samples=2, suites=("annihilate",)))
    assert counted == {"omega_kernel": 1, "phi_images": 0, "induced_gl_module": 0}


def test_check_phi_applies_phi_operator_only_for_the_images_and_unit_action(
        monkeypatch):
    """phi.bridge sums the cached images instead of applying φ again."""
    callers = Counter()
    orig = tensorqp.phi_operator

    def recorded(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return orig(*args)

    for module in (tensorqp, suites):
        monkeypatch.setattr(module, "phi_operator", recorded)
    code, report = run_suite(SuiteConfig(m=1, n=2, samples=3, seed=4, suites=("phi",)))
    assert code == 0 and report["failures"] == 0
    assert callers == {"phi_images": 16, "unit_action": 16}


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
        CheckResult("c.all", True, 5),
        CheckResult("c.none", True, 0),
        CheckResult("c.fail", False, 3, "case 2"),
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
