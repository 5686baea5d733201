"""The suite runner's per-μ cache of the kernel extraction and the
induced module."""

import pytest

from rinehart import suites
from rinehart.suites import SuiteConfig, build_env, run_suite

KERNEL_SUITES = ("phi", "annihilate", "iso")


@pytest.fixture
def counted(monkeypatch):
    """Count the calls the suites make to the extraction and the induced
    module (the suites look both names up in their own module)."""
    calls = {"omega_extract": 0, "induced_gl_module": 0}
    for name in calls:
        orig = getattr(suites, name)

        def wrapper(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(suites, name, wrapper)
    return calls


def test_kernel_suites_extract_once(counted):
    cfg = SuiteConfig(m=1, n=2, samples=3, seed=4, suites=KERNEL_SUITES)
    code, report = run_suite(cfg)
    assert code == 0 and report["failures"] == 0
    assert counted == {"omega_extract": 1, "induced_gl_module": 1}


def test_build_env_computes_nothing(counted):
    env = build_env(SuiteConfig(m=1, n=2))
    assert env.cache == {}
    assert counted == {"omega_extract": 0, "induced_gl_module": 0}


def test_annihilate_alone_builds_no_induced_module(counted):
    run_suite(SuiteConfig(m=1, n=2, samples=2, suites=("annihilate",)))
    assert counted == {"omega_extract": 1, "induced_gl_module": 0}


def test_failed_induced_module_fails_both_suites(monkeypatch):
    def broken(S, basis):
        raise ValueError("operator does not preserve the extracted kernel")

    monkeypatch.setattr(suites, "induced_gl_module", broken)
    code, report = run_suite(SuiteConfig(m=1, n=1, samples=2, suites=("phi", "iso")))
    assert code == 1
    failed = [(c["id"], c["cases"], c["counterexample"])
              for c in report["checks"] if not c["pass"]]
    message = "operator does not preserve the extracted kernel"
    assert failed == [("phi.gl_relations", 0, message), ("iso.equivariance", 0, message)]
