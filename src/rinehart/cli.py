"""Command-line interface.

    rinehart check {all|koszul|...} [--m --n --deg --samples --seed
                                     --module PATH --json]
    rinehart eval act --expr FIELD --on POLY
    rinehart bracket --lhs LIT --rhs LIT [--dotted]
    rinehart x-element --r CSV --J CSV --tag D0|Qk
    rinehart project-gl --expr FIELD
    rinehart filt-deg --expr POLY
    rinehart weights --expr LIT

Exit codes: 0 all checks pass, 1 a check (or the module rep-check)
failed, 2 configuration or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RepCheckFailure
from .parser import (
    ParseError,
    format_element,
    format_gl_matrix,
    format_smash,
    parse_element,
)
from .smash import make_X, theta_project
from .superpoly import Signature, filt_degree
from .suites import SUITE_NAMES, SuiteConfig, report_json, report_text, run_suite
from .vectorfields import QPElement, VectorField, qp_bracket, vf_bracket, weight_of


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, default=1, help="even loop variables beyond t0")
    p.add_argument("--n", type=int, default=1, help="Grassmann variables")
    p.add_argument("--dotted", action="store_true", help="use the t0-free signature")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="rinehart",
        description="Exact checks for Laurent-Grassmann derivation algebras"
        " and their tensor modules.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification suites")
    check.add_argument("suite", choices=("all",) + SUITE_NAMES)
    check.add_argument("--m", type=int, default=1)
    check.add_argument("--n", type=int, default=1)
    check.add_argument("--deg", type=int, default=2)
    check.add_argument("--samples", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--module", help="gl-module config JSON")
    check.add_argument("--json", action="store_true", help="machine summary only")

    ev = sub.add_parser("eval", help="evaluate an action")
    ev.add_argument("what", choices=("act",))
    ev.add_argument("--expr", required=True, help="vector-field literal")
    ev.add_argument("--on", required=True, help="polynomial literal")
    _add_common(ev)

    br = sub.add_parser("bracket", help="bracket of two elements")
    br.add_argument("--lhs", required=True)
    br.add_argument("--rhs", required=True)
    _add_common(br)

    xe = sub.add_parser("x-element", help="print a centralizer generator")
    xe.add_argument("--r", required=True, help="comma-separated exponents r0..rm")
    xe.add_argument("--J", default="", help="comma-separated Grassmann indices")
    xe.add_argument("--tag", required=True, help="derivation tag, e.g. D0 or Q1")
    _add_common(xe)

    pg = sub.add_parser("project-gl", help="project a field onto gl(m+1,n)")
    pg.add_argument("--expr", required=True)
    _add_common(pg)

    fd = sub.add_parser("filt-deg", help="filtration degree of a polynomial")
    fd.add_argument("--expr", required=True)
    _add_common(fd)

    wt = sub.add_parser("weights", help="weight vector of an element")
    wt.add_argument("--expr", required=True)
    _add_common(wt)
    return root


def _sig(args) -> Signature:
    return Signature(args.m, args.n, not args.dotted)


def _parse_tag(text: str, sig: Signature):
    """The tag of a derivation literal such as D0 or Q1, read by the element
    grammar: a field of one basis derivation with coefficient 1."""
    terms = parse_element(text, sig, expect="field").terms
    if len(terms) == 1:
        ((exps, mask, tag), c), = terms.items()
        if (exps, mask, c) == (sig.zero_exps(), 0, 1):
            return tag
    raise ParseError("tag must be one derivation such as D0 or Q1", 0)


def _cmd_check(args) -> int:
    cfg = SuiteConfig(
        m=args.m,
        n=args.n,
        deg=args.deg,
        samples=args.samples,
        seed=args.seed,
        suites=(args.suite,),
        module_path=args.module,
    )
    code, report = run_suite(cfg)
    if args.json:
        print(report_json(report))
    else:
        print(report_text(report))
    return code


def _cmd_eval(args) -> int:
    sig = _sig(args)
    warnings: list[str] = []
    x = parse_element(args.expr, sig, expect="field", warnings=warnings)
    f = parse_element(args.on, sig, expect="poly", warnings=warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(format_element(x.apply(f)))
    return 0


def _cmd_bracket(args) -> int:
    sig = _sig(args)
    lhs = parse_element(args.lhs, sig)
    rhs = parse_element(args.rhs, sig)
    if isinstance(lhs, VectorField) and isinstance(rhs, VectorField):
        print(format_element(vf_bracket(lhs, rhs)))
        return 0
    if sig.includes_t0:
        raise ParseError("mixed brackets need --dotted", 0)
    print(format_element(qp_bracket(QPElement.of(lhs), QPElement.of(rhs))))
    return 0


def _csv_ints(text: str, option: str) -> list[int]:
    """The comma-separated integers of an option; a part that is none is a
    ParseError at its position in the text."""
    out, pos = [], 0
    for part in text.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise ParseError(f"{option} expects comma-separated integers, got"
                             f" {part.strip()!r}", pos + len(part) - len(part.lstrip())) from None
        pos += len(part) + 1
    return out


def _cmd_x_element(args) -> int:
    sig = _sig(args)
    rbar = tuple(_csv_ints(args.r, "--r"))
    jmask = 0
    if args.J.strip():
        for k in _csv_ints(args.J, "--J"):
            sig.check_zeta(k)
            bit = 1 << (k - 1)
            if jmask & bit:
                raise ConfigError(f"--J names the Grassmann index {k} twice")
            jmask |= bit
    tag = _parse_tag(args.tag, sig)
    print(format_smash(make_X(sig, rbar, jmask, tag)))
    return 0


def _cmd_project_gl(args) -> int:
    sig = _sig(args)
    x = parse_element(args.expr, sig, expect="field")
    print(format_gl_matrix(theta_project(x)))
    return 0


def _cmd_filt_deg(args) -> int:
    sig = _sig(args)
    f = parse_element(args.expr, sig, expect="poly")
    d = filt_degree(f)
    print("inf" if d == float("inf") else int(d))
    return 0


def _cmd_weights(args) -> int:
    sig = _sig(args)
    e = parse_element(args.expr, sig)
    w = weight_of(e)
    hp = ",".join(str(v) for v in w.hprime)
    h = ",".join(str(v) for v in w.h)
    print(f"hprime={hp} h={h}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "eval": _cmd_eval,
        "bracket": _cmd_bracket,
        "x-element": _cmd_x_element,
        "project-gl": _cmd_project_gl,
        "filt-deg": _cmd_filt_deg,
        "weights": _cmd_weights,
    }
    try:
        return handlers[args.command](args)
    except RepCheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
