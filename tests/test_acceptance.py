"""Acceptance suite: the twelve exit criteria, each at its stated scale.

Every check is exact (zero tolerance) over Gaussian rationals; the
default scale is m, n in {1, 2}, Laurent exponents within ±3, the
defining module, and a fixed seed.  One PASS/FAIL line is printed per
criterion (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import json

from rinehart.cli import main
from rinehart.suites import (
    MALFORMED,
    SuiteConfig,
    annihilate_suite,
    build_env,
    centralizer_suite,
    equalities_suite,
    filtration_suite,
    iso_suite,
    jacobi_suite,
    koszul_suite,
    loop_suite,
    phi_suite,
    psi_suite,
    qp_suite,
    report_json,
    roundtrip_suite,
    run_suite,
    theta_suite,
)

SEED = 7
GRID = ((1, 1), (1, 2), (2, 1), (2, 2))


def _run(suite_fn, samples, grid=GRID, deg=3):
    failures = []
    total = 0
    for m, n in grid:
        cfg = SuiteConfig(m=m, n=n, deg=deg, samples=samples, seed=SEED)
        for res in suite_fn(cfg, build_env(cfg)):
            total += 1
            if not res["pass"]:
                failures.append(f"(m={m},n={n}) {res['id']}: {res['counterexample']}")
    return total, failures


def _report(criterion, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {criterion}: {status}")
    assert not failures, failures


def test_criterion_01_koszul():
    # 500 monomial pairs/triples split across the (m, n) grid
    total, failures = _run(koszul_suite, 125)
    _report("01-koszul", failures)


def test_criterion_02_jacobi():
    # 200 homogeneous triples per bracket kind at every (m, n)
    total, failures = _run(jacobi_suite, 200)
    _report("02-jacobi", failures)


def test_criterion_03_filtration():
    # 100 mods2 exponent vectors, 100 degree-field samples, the plus-part
    # rewrite at (k, k') in {(1,3), (2,3)}, 50 mode-membership samples
    total, failures = _run(filtration_suite, 100)
    _report("03-filtration", failures)


def test_criterion_04_theta():
    # 200 homomorphism pairs, 100+100 kernel samples, the full projection
    # table at every (m, n) -- including the 16-entry cases (1,2) and (2,1)
    total, failures = _run(theta_suite, 200)
    _report("04-theta", failures)


def test_criterion_05_centralizer_and_psi():
    # 50 generators against every basis derivation and 20 monomials each;
    # 100 bracket-identification pairs
    total, failures = _run(centralizer_suite, 100)
    t2, f2 = _run(psi_suite, 100)
    _report("05-centralizer-psi", failures + f2)


def test_criterion_06_qp_axioms():
    # axioms (1)-(7) on 200 tuples per (m, n) and two admissible shift
    # vectors (one with nonzero imaginary parts); the mutated structure
    # must fail exactly axiom (6)
    total, failures = _run(qp_suite, 7 * 200)
    _report("06-qp-axioms", failures)


def test_criterion_07_equalities():
    # identities (1)-(5) on 100 random parameter tuples each
    total, failures = _run(equalities_suite, 100)
    _report("07-equalities", failures)


def test_criterion_08_loop():
    # 200 module-law and Leibniz tuples, 100 tensor-vs-loop samples,
    # 100 derivation-correspondence pairs
    total, failures = _run(loop_suite, 200)
    _report("08-loop", failures)


def test_criterion_09_phi_and_annihilation():
    # every elementary pair (625 at (2,2)), the unit action on every
    # basis vector, 100 bridge generators, 50 square-ideal samples
    total, failures = _run(phi_suite, 100)
    t2, f2 = _run(annihilate_suite, 100)
    _report("09-phi-annihilate", failures + f2)


def test_criterion_10_theta_iso():
    # equivariance of the comparison map on 100 samples per kind and the
    # rank check on the degree-bounded truncation
    total, failures = _run(iso_suite, 100)
    _report("10-iso", failures)


def test_criterion_11_parser():
    # 500 round trips plus 20 malformed inputs, each with a position-
    # bearing diagnostic and CLI exit code 2
    cfg = SuiteConfig(m=2, n=2, deg=3, samples=500, seed=SEED)
    failures = [
        f"{r['id']}: {r['counterexample']}"
        for r in roundtrip_suite(cfg, build_env(cfg))
        if not r["pass"]
    ]
    for text in MALFORMED:
        code = main(["filt-deg", "--expr", text])
        if code != 2:
            failures.append(f"exit code {code} for {text!r}")
    _report("11-parser", failures)


def test_criterion_12_determinism(capsys):
    # identical seeds give byte-identical machine summaries, both through
    # the library and through the CLI
    cfg = SuiteConfig(m=1, n=1, deg=2, samples=40, seed=SEED, suites=("all",))
    _, r1 = run_suite(cfg)
    _, r2 = run_suite(cfg)
    failures = []
    if report_json(r1) != report_json(r2):
        failures.append("library reports differ")
    args = ["check", "all", "--m", "1", "--n", "1", "--deg", "2", "--samples",
            "40", "--seed", str(SEED), "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    if not (code1 == code2 == 0):
        failures.append(f"exit codes {code1}, {code2}")
    if out1 != out2:
        failures.append("CLI summaries differ")
    json.loads(out1)
    _report("12-determinism", failures)
