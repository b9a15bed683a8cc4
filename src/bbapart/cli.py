"""Command-line entry point: parse, check, distinguish, mc, convert,
random, validate.

The subcommands and their arguments are one table, ``_commands()``.  A
command line in the strict form is read from that table with no
``argparse`` import: ``argv[0]`` names a subcommand; each later token is
an exact option string of it, the value after a value-taking option, or
a positional; no value or positional starts with ``-``; each value
converts by its entry's ``type`` and lies in its ``choices``; every
required option and every positional is given.  Anything else goes to
the full parser that ``build_parser`` builds from the same table, so
help and error text is argparse's, byte for byte.

Exit codes: 0 for any successful answer (including "not apart" and "does
not distinguish"), 2 for usage, input-parse or output errors and for a
``MemoryError``, 3 when an internal invariant check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types
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
from .validate import (KINDS, NotApartError, check_pair, cross_validate, distinguish_pair,
                       run_campaign)

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
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load names from {args.names}: {exc}") from exc
    return l


def _state(l: Lts, token: str) -> int:
    try:
        return l.state_index(token)
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc


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


def _complain(text: str) -> None:
    """Write ``text`` to stderr; if that fails, drop stderr so that its flush
    at exit cannot fail again: the command keeps its exit code and stdout."""
    try:
        sys.stderr.write(text)  # None when the process started without it
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        sys.stderr = open(os.devnull, "w")


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
    p, q = _state(l, args.p), _state(l, args.q)
    try:
        result = check_pair(l, args.kind, p, q, nonreflexive=args.nonreflexive,
                            silent_label=args.tau_label)
    except ValueError as exc:  # --nonreflexive with another kind
        raise CliError(str(exc)) from exc
    if args.kind in ("strong", "dstrong") and TAU in l.actions:
        _complain("warning: strong relations treat the silent action as an "
                  "ordinary label on this LTS\n")
    return _emit(result)


def cmd_distinguish(args) -> int:
    l = _load_lts(args)
    p, q = _state(l, args.p), _state(l, args.q)
    try:
        result = distinguish_pair(l, p, q)
    except NotApartError as exc:
        return _emit({"apart": False, "bisimilar": True,
                      "message": str(exc)})
    formula = result["formula"]
    if args.simplify:
        formula = simplify(formula, l)
    return _emit({
        "apart": True,
        "formula": format_pformula(formula, silent_label=args.tau_label),
        "formulaJson": pformula_to_json(formula, silent_label=args.tau_label),
        "derivation": result["derivation"].to_json(l, silent_label=args.tau_label),
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
        "formulaJson": pformula_to_json(result, silent_label=args.tau_label),
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


# Arguments that several subcommands share, as ``(option strings,
# settings)`` entries of the command table.
_LTS = ((("--lts",), {"required": True, "help": "LTS in Aldebaran (.aut) format"}),
        (("--tau-label",), {"default": "tau", "choices": ["tau", "i"],
                            "help": "token naming the silent action in input files"}),
        (("--names",), {"default": None,
                        "help": "JSON sidecar mapping state indices to names"}))
_TAU_LABEL = (("--tau-label",), {"default": "tau", "choices": ["tau", "i"]})
_NAMES = (("--names",), {"default": None})
_FORMULA = (("--formula",), {"required": True})
_SIMPLIFY = (("--simplify",), {"action": "store_true"})
_PAIR = ((("p",), {}), (("q",), {}))
_DENSITIES = ((("--vdensity",), {"type": float, "default": 1.5}),
              (("--tdensity",), {"type": float, "default": 0.7}))


def _commands() -> dict:
    """The command table: each subcommand's function, its help text and its
    arguments, as ``(option strings, settings)`` entries for
    ``add_argument``.  Built per call from the module's bindings, so that a
    wrapped command function is the one that runs."""
    return {
        "parse": (cmd_parse, "parse an .aut file and print stats", (
            (("lts",), {"metavar": "file"}), _TAU_LABEL, _NAMES)),
        "check": (cmd_check, "apartness/bisimilarity of a state pair", (
            *_LTS,
            (("--kind",), {"required": True, "choices": KINDS}),
            (("--nonreflexive",), {"action": "store_true", "help":
                                   "the four-rule engine on the raw LTS (dbranching only)"}),
            *_PAIR)),
        "distinguish": (cmd_distinguish, "synthesize a distinguishing P-formula", (
            *_LTS, _SIMPLIFY, *_PAIR)),
        "mc": (cmd_mc, "model-check a formula at a state", (
            *_LTS, (("--state",), {"required": True}), _FORMULA)),
        "convert": (cmd_convert, "turn a distinguishing formula into a P-formula", (
            *_LTS, _FORMULA, _SIMPLIFY, *_PAIR)),
        "random": (cmd_random, "generate a seeded random LTS", (
            (("--states",), {"type": int, "required": True}),
            (("--actions",), {"type": int, "default": 2}),
            *_DENSITIES,
            (("--seed",), {"type": int, "default": 0}),
            _TAU_LABEL,
            (("-o", "--output"), {"default": None}))),
        "validate": (cmd_validate, "run the cross-validation suites", (
            (("--lts",), {"default": None}),
            _TAU_LABEL,
            _NAMES,
            (("--campaign",), {"action": "store_true"}),
            (("--count",), {"type": int, "default": 200}),
            (("--seed",), {"type": int, "default": 0}),
            (("--min-states",), {"type": int, "default": 2, "help":
                                 "campaign: smallest LTS (sizes cycle up to --max-states)"}),
            (("--max-states",), {"type": int, "default": 8}),
            (("--actions",), {"type": int, "default": 2,
                              "help": "campaign: visible actions per LTS"}),
            *_DENSITIES)),
    }


def build_parser():
    """The full ``argparse.ArgumentParser``, with every subcommand of the
    table.  Only help and usage errors need it, so argparse is imported
    here and not with the module."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bbapart",
        description="Apartness, bisimilarity, model checking, and "
                    "distinguishing-formula synthesis on finite LTSs.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, entries) in _commands().items():
        sub = subs.add_parser(name, help=help)
        for flags, settings in entries:
            sub.add_argument(*flags, **settings)
        sub.set_defaults(func=func)
    return parser


def _command_args(argv):
    """The namespace that a parser of subcommand ``argv[0]`` alone would
    return for ``argv``, read from the command table, if ``argv`` has the
    strict form (see the module docstring); None otherwise."""
    if not argv or argv[0] not in (commands := _commands()):
        return None
    func, _, entries = commands[argv[0]]
    args, options, positionals, required = {"func": func}, {}, [], set()
    for flags, settings in entries:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], settings))
            continue
        # argparse's dest: the first long option string, else the first one
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        options.update(dict.fromkeys(flags, (dest, settings)))
        args[dest] = (False if settings.get("action") == "store_true"
                      else settings.get("default"))
        if settings.get("required"):
            required.add(dest)
    tokens, positionals = iter(argv[1:]), iter(positionals)
    for token in tokens:
        if not token.startswith("-"):
            dest, settings = next(positionals, (None, None))
            if dest is None:
                return None  # a token left over
        elif token in options:
            dest, settings = options[token]
            required.discard(dest)
            if settings.get("action") == "store_true":
                args[dest] = True
                continue
            token = next(tokens, "-")  # a missing value is argparse's error
            if token.startswith("-"):
                return None
        else:
            return None
        try:
            args[dest] = settings.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in settings and args[dest] not in settings["choices"]:
            return None
    if required or next(positionals, None):
        return None
    return types.SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        printed, usage = io.StringIO(), io.StringIO()  # argparse ignores a failed write
        try:
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(usage):
                args = _command_args(argv) or build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or a usage error on stderr
            _complain(usage.getvalue())
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
        _complain(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        _complain("error: out of memory\n")
        return EXIT_USAGE
    except InternalInvariantError as exc:
        _complain(f"internal error: {exc}\n")
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
