"""Command-line entry point: parse, check, distinguish, mc, convert,
random, validate.

Exit codes: 0 for any successful answer (including "not apart" and "does
not distinguish"), 2 for usage, input-parse or output errors, 3 when an
internal invariant check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from .apartness import InternalInvariantError
from .distinguish import (
    FormulaTooDeepError,
    NotDistinguishingError,
    pformula_from_hmlu,
    simplify,
    verify_distinguishes,
)
from .generate import GenParams, campaign_instances, random_lts
from .logic import (
    Diamond,
    FormulaParseError,
    SatEvaluator,
    diamond_witness,
    format_formula,
    format_pformula,
    p_embed,
    parse_formula,
    pformula_to_json,
)
from .lts import (TAU, AutParseError, Lts, load_names, parse_aut, reflexive_closure,
                  render_aut)
from .validate import NotApartError, check_pair, cross_validate, distinguish_pair, run_campaign

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    """Input-level failure mapped to exit code 2."""


def _load_lts(args) -> Lts:
    path = Path(args.lts)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


# Pieces of JSON text joined into one write.
_WRITE_BATCH = 4096
# json.dumps of a str and of an exact int, without its dispatch.
_SCALAR_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__}


def _dump(payload, write) -> None:
    """Write ``payload`` as ``json.dump(payload, fp, indent=2)`` would, by
    an explicit stack rather than one recursive call per nesting level, so
    that any depth prints.  Dict keys must be strings."""
    chunks: list = []
    stack = [(payload, 0)]  # (value, depth), or (text, None) for literal text
    while stack:
        value, depth = stack.pop()
        if depth is None:
            chunks.append(value)
        elif isinstance(value, (dict, list, tuple)) and value:
            pad = "\n" + "  " * (depth + 1)
            if isinstance(value, dict):
                chunks.append("{")
                stack.append(("\n" + "  " * depth + "}", None))
                items = list(value.items())
                for i in range(len(items) - 1, -1, -1):
                    key, item = items[i]
                    if not isinstance(key, str):
                        raise TypeError(f"key {key!r} is not a string")
                    stack.append((item, depth + 1))
                    stack.append(((pad if i == 0 else "," + pad)
                                  + json.encoder.encode_basestring_ascii(key) + ": ", None))
            else:
                chunks.append("[")
                stack.append(("\n" + "  " * depth + "]", None))
                for i in range(len(value) - 1, -1, -1):
                    stack.append((value[i], depth + 1))
                    stack.append((pad if i == 0 else "," + pad, None))
        else:
            chunks.append(_SCALAR_TEXT.get(type(value), json.dumps)(value))
        if len(chunks) >= _WRITE_BATCH:
            write("".join(chunks))
            chunks.clear()
    write("".join(chunks))


def _emit(payload) -> int:
    _dump(payload, sys.stdout.write)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_parse(args) -> int:
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
    if args.kind in ("strong", "dstrong") and TAU in l.actions:
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
    holds = SatEvaluator.of(l).holds(p, f)
    payload = {"state": l.state_name(p),
               "formula": format_formula(f, silent_label=args.tau_label),
               "holds": holds}
    if holds and isinstance(f, Diamond):
        w = diamond_witness(l, p, f.left, f.label, f.right)
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
    try:
        params = GenParams(n_states=args.states, visible_actions=args.actions,
                           visible_density=args.vdensity,
                           tau_density=args.tdensity, seed=args.seed)
        text = render_aut(random_lts(params), silent_label=args.tau_label)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.campaign:
        if args.count < 1:
            raise CliError("--count must be at least 1")
        params = dict(min_states=args.min_states, max_states=args.max_states,
                      visible_actions=args.actions,
                      visible_density=args.vdensity, tau_density=args.tdensity)
        try:  # the first instance carries every setting: check it first
            next(campaign_instances(1, args.seed, **params))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        report = run_campaign(count=args.count, seed=args.seed, **params)
    elif args.lts:
        report = cross_validate(_load_lts(args))
    else:
        raise CliError("validate needs --lts or --campaign")
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_INTERNAL


def _commands() -> dict:
    """The command table: each subcommand's function, help text and the
    function that adds its arguments.  Built per call from the module's
    bindings, so that a wrapped command function is the one that runs."""

    def lts_options(sub):
        sub.add_argument("--lts", required=True, help="LTS in Aldebaran (.aut) format")
        sub.add_argument("--tau-label", default="tau", choices=["tau", "i"],
                         help="token naming the silent action in input files")
        sub.add_argument("--names", default=None,
                         help="JSON sidecar mapping state indices to names")

    def parse(sub):
        sub.add_argument("lts", metavar="file")
        sub.add_argument("--tau-label", default="tau", choices=["tau", "i"])
        sub.add_argument("--names", default=None)

    def check(sub):
        lts_options(sub)
        sub.add_argument("--kind", required=True,
                         choices=["strong", "dstrong", "branching", "dbranching"])
        sub.add_argument("--nonreflexive", action="store_true",
                         help="use the four-rule engine on the raw LTS (dbranching)")
        sub.add_argument("p")
        sub.add_argument("q")

    def distinguish(sub):
        lts_options(sub)
        sub.add_argument("--simplify", action="store_true")
        sub.add_argument("p")
        sub.add_argument("q")

    def mc(sub):
        lts_options(sub)
        sub.add_argument("--state", required=True)
        sub.add_argument("--formula", required=True)

    def convert(sub):
        lts_options(sub)
        sub.add_argument("--formula", required=True)
        sub.add_argument("--simplify", action="store_true")
        sub.add_argument("p")
        sub.add_argument("q")

    def random(sub):
        sub.add_argument("--states", type=int, required=True)
        sub.add_argument("--actions", type=int, default=2)
        sub.add_argument("--vdensity", type=float, default=1.5)
        sub.add_argument("--tdensity", type=float, default=0.7)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--tau-label", default="tau", choices=["tau", "i"])
        sub.add_argument("-o", "--output", default=None)

    def validate(sub):
        sub.add_argument("--lts", default=None)
        sub.add_argument("--tau-label", default="tau", choices=["tau", "i"])
        sub.add_argument("--names", default=None)
        sub.add_argument("--campaign", action="store_true")
        sub.add_argument("--count", type=int, default=200)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--min-states", type=int, default=2,
                         help="campaign: smallest LTS (sizes cycle up to --max-states)")
        sub.add_argument("--max-states", type=int, default=8)
        sub.add_argument("--actions", type=int, default=2,
                         help="campaign: visible actions per LTS")
        sub.add_argument("--vdensity", type=float, default=1.5)
        sub.add_argument("--tdensity", type=float, default=0.7)

    return {
        "parse": (cmd_parse, "parse an .aut file and print stats", parse),
        "check": (cmd_check, "apartness/bisimilarity of a state pair", check),
        "distinguish": (cmd_distinguish, "synthesize a distinguishing P-formula", distinguish),
        "mc": (cmd_mc, "model-check a formula at a state", mc),
        "convert": (cmd_convert, "turn a distinguishing formula into a P-formula", convert),
        "random": (cmd_random, "generate a seeded random LTS", random),
        "validate": (cmd_validate, "run the cross-validation suites", validate),
    }


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, with every subcommand of the table."""
    parser = argparse.ArgumentParser(
        prog="bbapart",
        description="Apartness, bisimilarity, model checking, and "
                    "distinguishing-formula synthesis on finite LTSs.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, add_arguments) in _commands().items():
        sub = subs.add_parser(name, help=help)
        add_arguments(sub)
        sub.set_defaults(func=func)
    return parser


def _command_args(argv):
    """``argv`` parsed by the parser of subcommand ``argv[0]`` alone, or
    None if that parser would print (help, a usage error) or leaves
    arguments over: the full parser answers those, byte for byte."""
    if not argv or argv[0] not in (commands := _commands()):
        return None
    func, _, add_arguments = commands[argv[0]]
    parser = argparse.ArgumentParser(prog="bbapart " + argv[0])
    add_arguments(parser)
    parser.set_defaults(func=func)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), \
            contextlib.suppress(SystemExit):
        args, extra = parser.parse_known_args(argv[1:])
        return None if extra else args
    return None  # help or a usage error


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        printed = io.StringIO()  # argparse would ignore a failed write
        try:
            with contextlib.redirect_stdout(printed):
                args = _command_args(argv) or build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or a usage error on stderr
            sys.stdout.write(printed.getvalue())
            code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, NotDistinguishingError, FormulaTooDeepError,
            OSError) as exc:  # files fail as CliError: OSError is stdout's
        if isinstance(exc, OSError):  # keep the flush at exit silent
            with contextlib.suppress(OSError, ValueError):
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                sys.stdout = open(os.devnull, "w")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
