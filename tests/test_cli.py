import hashlib
import json

import pytest

from rinehart.cli import main


def test_filt_deg(capsys):
    assert main(["filt-deg", "--expr", "t0*t1-1-t0-t1+2", "--m", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_project_gl(capsys):
    assert main(["project-gl", "--expr", "(t1-1)*D0"]) == 0
    assert capsys.readouterr().out.strip() == "E_1_0"


def test_eval_act(capsys):
    assert main(["eval", "act", "--expr", "t1*D1", "--on", "t1^2"]) == 0
    assert capsys.readouterr().out.strip() == "2*t1^3"


def test_bracket(capsys):
    assert main(["bracket", "--lhs", "t1*D1", "--rhs", "t1^-1*D1"]) == 0
    assert capsys.readouterr().out.strip() == "-2*D1"


def test_bracket_qp(capsys):
    assert main(["bracket", "--dotted", "--lhs", "D1", "--rhs", "t1"]) == 0
    assert capsys.readouterr().out.strip() == "1*t1"


def test_x_element(capsys):
    assert main(["x-element", "--r", "1,0", "--J", "", "--tag", "Q1"]) == 0
    out = capsys.readouterr().out
    assert "#" in out and "Q1" in out


def test_x_element_refuses_the_dotted_signature(capsys):
    """A centralizer generator lives in the smash product over the full A:
    on the t_0-free signature x-element is an error (exit 2), not an
    element over the dotted algebra."""
    assert main(["x-element", "--dotted", "--r", "1", "--J", "1", "--tag", "Q1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SmashElement needs the full signature\n"


def test_x_element_rejects_a_repeated_index(capsys):
    """J is a subset of {1..n}: a repeated index is a config error, not
    the generator for J = {1}."""
    assert main(["x-element", "--r", "1,0", "--J", "1,1", "--tag", "Q1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index 1 twice" in captured.err
    assert main(["x-element", "--m", "1", "--n", "2", "--r", "1,0",
                 "--J", "2,1,2", "--tag", "Q1"]) == 2
    assert "index 2 twice" in capsys.readouterr().err
    assert main(["x-element", "--m", "1", "--n", "2", "--r", "1,0",
                 "--J", "2,1", "--tag", "Q1"]) == 0


@pytest.mark.parametrize("option,text,at", [("--r", "1,x", 2), ("--r", "1, 2.5", 3)])
def test_x_element_reads_r_as_integers(capsys, option, text, at):
    """A part of --r that is no integer is a positioned parse error (exit
    2), never Python's int() message."""
    assert main(["x-element", "--m", "1", "--n", "1", option, text, "--tag", "Q1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = text.split(",")[-1].strip()
    assert captured.err == (f"error: {option} expects comma-separated integers,"
                            f" got {bad!r} (at position {at})\n")


def test_x_element_reads_j_as_integers(capsys):
    assert main(["x-element", "--m", "1", "--n", "1", "--r", "1,0", "--J", "1,y",
                 "--tag", "Q1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --J expects comma-separated integers,"
                            " got 'y' (at position 2)\n")


@pytest.mark.parametrize("tag", ["D+1", "Q 1", "Dx"])
def test_x_element_reads_the_tag_by_the_element_grammar(capsys, tag):
    """--tag is a derivation literal: text that is not one is a positioned
    parse error (exit 2), never a generator and never a Python message."""
    assert main(["x-element", "--r", "1,0", "--tag", tag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected an index after")
    assert captured.err.rstrip().endswith("(at position 0)")


def test_x_element_tag_is_one_unit_derivation(capsys):
    assert main(["x-element", "--r", "1,0", "--tag", "D0"]) == 0
    assert "D0" in capsys.readouterr().out
    for tag in ("2*D1", "t1*D1", "D1+Q1", "0"):
        assert main(["x-element", "--r", "1,0", "--tag", tag]) == 2
        assert "tag must be one derivation" in capsys.readouterr().err
    assert main(["x-element", "--r", "1,0", "--tag", "Q2"]) == 2
    assert "index Q2 out of signature" in capsys.readouterr().err


def test_weights(capsys):
    assert main(["weights", "--expr", "z1*Q1"]) == 0
    assert capsys.readouterr().out.strip() == "hprime=0,0 h=0"


def test_check_suite_passes(capsys):
    assert main(["check", "koszul", "--samples", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS koszul.supercommutativity" in out


def test_check_json_deterministic(capsys):
    args = ["check", "filtration", "--samples", "8", "--seed", "5", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)



# sha256 of `check all --m M --n N --deg 3 --samples 30 --seed 7 --json`,
# recorded before the int-or-Fraction scalar kernel and sparse rref; any
# change to the arithmetic must leave these reports byte-identical.
GOLDEN_CHECK_ALL = {
    (1, 1): "4436ec6dc5e0f037212e0ec9de5f1dfc0fc9cb8fc21758b6a7c807dc2fdc6fe3",
    (1, 2): "6984f1db1044ddf0f35847dbc134d5998bcecf7aab08d52257bb1150df81ac9f",
    (2, 1): "03969dddd7b503d11498360eed5c7334215be0573aa3c99d23639c601dfee42a",
    (2, 2): "13227e677acb98cd5f97beec8cc97f7aabe60585ee4d4fc62f7cca41fb4c068d",
}


@pytest.mark.parametrize("m,n", sorted(GOLDEN_CHECK_ALL))
def test_check_all_json_matches_golden_hash(capsys, m, n):
    args = ["check", "all", "--m", str(m), "--n", str(n), "--deg", "3",
            "--samples", "30", "--seed", "7", "--json"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CHECK_ALL[(m, n)]


# sha256 of suites.report_json(run_suite(SuiteConfig(2, 3, 2, 20, seed,
# ("phi", "annihilate", "iso")))), the config of the benchmark's kernel
# workload, recorded before the tensor-module actions took term parts.
GOLDEN_KERNEL = {
    0: "b1c17b1034c683e082976e70c209b0e331eea289fbe0878a89201f6cfed92aff",
    1: "14a19a8bc5d1190a56adfe0a96fe0c95c9f2ebeaf0631b6a020276e661c08780",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_KERNEL))
def test_kernel_suites_match_golden_hash(seed):
    from rinehart.suites import SuiteConfig, report_json, run_suite

    report = run_suite(SuiteConfig(2, 3, 2, 20, seed, ("phi", "annihilate", "iso")))
    digest = hashlib.sha256(report_json(report).encode()).hexdigest()
    assert digest == GOLDEN_KERNEL[seed]


def test_parse_error_exit_code(capsys):
    assert main(["filt-deg", "--expr", "t0^"]) == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", "qp", "--module", str(bad)]) == 2


def test_rep_check_failure_exit_code(tmp_path, capsys):
    from conftest import natural_config_dict

    doc = natural_config_dict(1, 1)
    doc["action"]["E_0_1"][0][1] = "2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "koszul", "--module", str(path), "--samples", "2"]) == 1


def test_check_with_module_and_mu(tmp_path, capsys):
    """A module config's μ is checked on load; the suites take their shifts
    from `admissible_mus`."""
    from conftest import write_natural_config

    path = tmp_path / "nat.json"
    write_natural_config(path, 1, 1)
    assert main(["check", "equalities", "--module", str(path), "--samples", "5"]) == 0


def test_check_has_no_mu_option(capsys):
    """No suite reads a shift from the command line, so `check` has no
    --mu; argparse refuses it with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "qp", "--mu", "0,0,0", "--samples", "2"])
    assert exc.value.code == 2
    assert "--mu" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["1+2,0,0", "0,2i+3i,0", "0,0,2i+1"])
def test_mu_entry_with_a_tail_is_a_config_error(tmp_path, capsys, mu):
    """Each entry of a module config's `mu` is one scalar literal; '1+2'
    used to read as 3. `check --module` refuses the file with exit 2."""
    from conftest import natural_config_dict

    doc = natural_config_dict(1, 1)
    doc["mu"] = mu.split(",")
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "qp", "--module", str(path), "--samples", "2"]) == 2
    assert "expected 'end'" in capsys.readouterr().err


def test_config_scalar_with_a_tail_is_a_config_error():
    from conftest import natural_config_dict
    from rinehart.config import ConfigError, module_from_dict

    doc = natural_config_dict(1, 1)
    doc["action"]["E_0_0"][0][0] = "1+0"  # the entry 1, spelled with a tail
    with pytest.raises(ConfigError, match="E_0_0"):
        module_from_dict(doc)
    doc = natural_config_dict(1, 1)
    doc["mu"] = ["1+2", "0", "0"]
    with pytest.raises(ConfigError):
        module_from_dict(doc)


def test_library_error_in_suite_is_a_failure(monkeypatch, capsys):
    from rinehart import suites

    def broken(cfg, env):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(suites.SUITES, "koszul", broken)
    assert main(["check", "koszul", "--samples", "2", "--json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    report = json.loads(captured.out)
    assert report["failures"] == 1
    assert report["checks"] == [{
        "id": "koszul.error", "pass": False, "cases": 0,
        "counterexample": "TypeError: unsupported operand",
    }]


def test_unknown_suite_is_still_a_config_error():
    from rinehart.suites import SuiteConfig, run_suite

    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(SuiteConfig(suites=("nosuch",)))


def test_python_dash_m_runs_the_cli(capsys):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    args = ["check", "koszul", "--samples", "2", "--json"]
    proc = subprocess.run([sys.executable, "-m", "rinehart", *args],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == main(args) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("args", [
    # deg 0 draws only zero exponents; annihilate waited for a nonzero one
    ["annihilate", "--m", "1", "--n", "1", "--deg", "0", "--samples", "4"],
    # a negative deg was reported as the library fault annihilate.error
    ["annihilate", "--m", "1", "--n", "1", "--deg", "-1", "--samples", "4"],
    # no samples passed every check with 0 cases
    ["koszul", "--samples", "-3"],
])
def test_degenerate_deg_or_samples_is_a_config_error(args):
    """Rejected before any suite runs, with exit 2 and no report.  Run in a
    child with a timeout, since a deg-0 draw loop would never end."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "rinehart", "check", *args, "--json"],
                          capture_output=True, text=True, env=env, check=False,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be at least 1" in proc.stderr
