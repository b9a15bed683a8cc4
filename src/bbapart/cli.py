"""Command-line entry point: parse, check, distinguish, mc, convert,
random, validate.

Exit codes: 0 for any successful answer (including "not apart" and "does
not distinguish"), 2 for usage or input-parse errors, 3 when an internal
invariant check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .apartness import InternalInvariantError
from .distinguish import (
    NotDistinguishingError,
    pformula_from_hmlu,
    simplify,
    verify_distinguishes,
)
from .generate import GenParams, random_lts
from .logic import (
    Diamond,
    FormulaParseError,
    SatEvaluator,
    diamond_witness,
    format_formula,
    format_pformula,
    formula_to_json,
    p_embed,
    parse_formula,
    pformula_to_json,
)
from .lts import AutParseError, Lts, load_names, parse_aut, reflexive_closure
from .validate import NotApartError, check_pair, cross_validate, distinguish_pair, run_campaign

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    """Input-level failure mapped to exit code 2."""


def _load_lts(args) -> Lts:
    path = Path(args.lts)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        l = parse_aut(text, silent_label=args.tau_label)
    except AutParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if args.names:
        try:
            l = l.with_names(load_names(args.names))
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"cannot load names from {args.names}: {exc}") from exc
    return l


def _state(l: Lts, token: str) -> int:
    try:
        return l.state_index(token)
    except KeyError as exc:
        raise CliError(str(exc)) from exc


def _formula(args):
    try:
        return parse_formula(args.formula, silent_label=args.tau_label)
    except (FormulaParseError, ValueError) as exc:
        raise CliError(f"bad formula: {exc}") from exc


def _emit(payload) -> int:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _add_lts_options(sub):
    sub.add_argument("--lts", required=True, help="LTS in Aldebaran (.aut) format")
    sub.add_argument("--tau-label", default="tau", choices=["tau", "i"],
                     help="token naming the silent action in input files")
    sub.add_argument("--names", default=None,
                     help="JSON sidecar mapping state indices to names")


def cmd_parse(args) -> int:
    args.lts = args.file
    l = _load_lts(args)
    silent = sum(1 for _, label, _ in l.transitions if label.silent)
    return _emit({
        "states": l.n_states,
        "transitions": len(l.transitions),
        "initial": l.state_name(l.initial),
        "visibleActions": sorted(a.name for a in l.visible_actions),
        "silentTransitions": silent,
        "reflexiveSilentSteps": l.has_reflexive_silent_steps,
    })


def cmd_check(args) -> int:
    l = _load_lts(args)
    if args.kind in ("strong", "dstrong") and any(
            label.silent for _, label, _ in l.transitions):
        print("warning: strong relations treat the silent action as an "
              "ordinary label on this LTS", file=sys.stderr)
    p, q = _state(l, args.p), _state(l, args.q)
    return _emit(check_pair(l, args.kind, p, q, nonreflexive=args.nonreflexive))


def cmd_distinguish(args) -> int:
    l = _load_lts(args)
    p, q = _state(l, args.p), _state(l, args.q)
    try:
        result = distinguish_pair(l, p, q)
    except NotApartError as exc:
        return _emit({"apart": False, "bisimilar": exc.bisimilar,
                      "message": str(exc)})
    formula = result["formula"]
    if args.simplify:
        formula = simplify(formula, l)
    return _emit({
        "apart": True,
        "formula": format_pformula(formula, silent_label=args.tau_label),
        "formulaJson": pformula_to_json(formula),
        "derivation": result["derivation"].to_json(l),
    })


def cmd_mc(args) -> int:
    l = reflexive_closure(_load_lts(args))
    f = _formula(args)
    p = _state(l, args.state)
    ev = SatEvaluator(l)
    holds = ev.holds(p, f)
    payload = {"state": l.state_name(p),
               "formula": format_formula(f, silent_label=args.tau_label),
               "holds": holds}
    if holds and isinstance(f, Diamond):
        w = diamond_witness(l, p, f.left, f.label, f.right, ev)
        payload["witness"] = {"path": [l.state_name(s) for s in w.path],
                              "pre": l.state_name(w.pre),
                              "post": l.state_name(w.post)}
    return _emit(payload)


def cmd_convert(args) -> int:
    l = _load_lts(args)
    f = _formula(args)
    p, q = _state(l, args.p), _state(l, args.q)
    check = verify_distinguishes(l, f, p, q)
    if not check.distinguishes:
        return _emit({"distinguishes": False,
                      "message": "formula does not distinguish the states"})
    result = pformula_from_hmlu(l, f, p, q)
    if args.simplify:
        result = simplify(result, l)
    verified = verify_distinguishes(l, p_embed(result), p, q)
    return _emit({
        "distinguishes": True,
        "direction": check.direction,
        "formula": format_pformula(result, silent_label=args.tau_label),
        "formulaJson": pformula_to_json(result),
        "resultDirection": verified.direction,
    })


def cmd_random(args) -> int:
    from .lts import render_aut
    try:
        params = GenParams(n_states=args.states, visible_actions=args.actions,
                           visible_density=args.vdensity,
                           tau_density=args.tdensity, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    text = render_aut(random_lts(params), silent_label=args.tau_label)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.campaign:
        report = run_campaign(count=args.count, seed=args.seed)
    elif args.lts:
        report = cross_validate(_load_lts(args))
    else:
        raise CliError("validate needs --lts or --campaign")
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbapart",
        description="Apartness, bisimilarity, model checking, and "
                    "distinguishing-formula synthesis on finite LTSs.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("parse", help="parse an .aut file and print stats")
    sub.add_argument("file")
    sub.add_argument("--tau-label", default="tau", choices=["tau", "i"])
    sub.add_argument("--names", default=None)
    sub.set_defaults(func=cmd_parse)

    sub = subs.add_parser("check", help="apartness/bisimilarity of a state pair")
    _add_lts_options(sub)
    sub.add_argument("--kind", required=True,
                     choices=["strong", "dstrong", "branching", "dbranching"])
    sub.add_argument("--nonreflexive", action="store_true",
                     help="use the four-rule engine on the raw LTS (dbranching)")
    sub.add_argument("p")
    sub.add_argument("q")
    sub.set_defaults(func=cmd_check)

    sub = subs.add_parser("distinguish",
                          help="synthesize a distinguishing P-formula")
    _add_lts_options(sub)
    sub.add_argument("--simplify", action="store_true")
    sub.add_argument("p")
    sub.add_argument("q")
    sub.set_defaults(func=cmd_distinguish)

    sub = subs.add_parser("mc", help="model-check a formula at a state")
    _add_lts_options(sub)
    sub.add_argument("--state", required=True)
    sub.add_argument("--formula", required=True)
    sub.set_defaults(func=cmd_mc)

    sub = subs.add_parser("convert",
                          help="turn a distinguishing formula into a P-formula")
    _add_lts_options(sub)
    sub.add_argument("--formula", required=True)
    sub.add_argument("--simplify", action="store_true")
    sub.add_argument("p")
    sub.add_argument("q")
    sub.set_defaults(func=cmd_convert)

    sub = subs.add_parser("random", help="generate a seeded random LTS")
    sub.add_argument("--states", type=int, required=True)
    sub.add_argument("--actions", type=int, default=2)
    sub.add_argument("--vdensity", type=float, default=1.5)
    sub.add_argument("--tdensity", type=float, default=0.7)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tau-label", default="tau", choices=["tau", "i"])
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(func=cmd_random)

    sub = subs.add_parser("validate", help="run the cross-validation suites")
    sub.add_argument("--lts", default=None)
    sub.add_argument("--tau-label", default="tau", choices=["tau", "i"])
    sub.add_argument("--names", default=None)
    sub.add_argument("--campaign", action="store_true")
    sub.add_argument("--count", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotDistinguishingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
