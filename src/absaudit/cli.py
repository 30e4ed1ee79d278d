"""Command-line interface.

Exit codes: 0 success; 1 validation, audit or comparison failure; 2 usage
error; 3 enumeration capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
from itertools import compress, repeat
from operator import ne
from json.encoder import encode_basestring_ascii

# Lazily loaded (see the package docstring): read their attributes at call
# time, so a command runs only the modules it uses.
from . import audit, dot, taxonomy
from .abstraction import pushforward, validate_abstraction
from .errors import AbsauditError, CapacityError, ModelError, ParseError
from .freecat import hom_set
from .scm import Distribution, Scm, ValidationReport, intervene, joint_distribution, marginal
from .scm import row_major, underlying_graph, validate_scm
from .textfmt import Document, chunks, join_labels, join_rows, parse_path, weight_texts

OK, FAIL, USAGE, CAPACITY = 0, 1, 2, 3


def _load(paths: list[str]) -> Document:
    doc = Document()
    for path in paths:
        doc.merge(parse_path(path))
    return doc


def _pick(loaded: dict, name: str | None, kind: str, flag: str):
    """The object called `name`, or the only one loaded when `name` is None."""
    if name is not None:
        if name not in loaded:
            raise ModelError(f"no {kind} named {name!r} in the given files")
        return loaded[name]
    if not loaded:
        raise ModelError(f"no {kind} found in the given files")
    if len(loaded) > 1:
        raise ModelError(
            f"several {kind}s loaded; choose one with {flag} ({', '.join(loaded)})"
        )
    return next(iter(loaded.values()))


def _reported_ok(report: ValidationReport) -> bool:
    """Whether `report` is ok; its issues go to stderr."""
    for issue in report.issues:
        print(issue, file=sys.stderr)
    return report.ok


def _on_valid_abstraction(command):
    """The subcommand that runs `command(args, abstraction, source, target)`
    on the chosen abstraction, or prints issues on stderr and fails: the
    graph faults of its source, then of its target (`validate`'s issues
    that read neither mechanisms nor noise, in its order), else the
    abstraction's validation issues."""
    def run(args) -> int:
        doc = _load(args.files)
        abstraction = _pick(doc.abstractions, args.abs, "abstraction", "--abs")
        source, target = doc.resolve(abstraction)
        models = (source,) if source is target else (source, target)
        faults = [issue for m in models for issue in m._index.faults]
        if not (_reported_ok(ValidationReport(faults))
                and _reported_ok(validate_abstraction(abstraction, source, target))):
            return FAIL
        return command(args, abstraction, source, target)
    return run


def _intervened(model: Scm, items: list[str]) -> Scm:
    """`model` after the `--do VAR=VALUE` interventions `items`, if any."""
    out: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ModelError(f"--do expects VAR=VALUE, found {item!r}")
        var, val = item.split("=", 1)
        out[var] = val
    return intervene(model, out) if out else model


def _dist_rows(dist: Distribution) -> list[tuple[str, float]]:
    _, outcomes, probs = row_major(dist.probs, dist.domains)
    kept = list(map(ne, probs, repeat(0.0)))
    return list(zip(join_rows(list(compress(outcomes, kept))), compress(probs, kept)))


def _print_dist(dist: Distribution, as_json: bool) -> None:
    """The scope, then the nonzero outcomes: in text in row-major order; in
    JSON the bytes of `json.dumps({"probs": ..., "scope": ...}, sort_keys=True)`,
    written in sorted label order (parsed labels join to distinct keys).
    Either is formatted and written a chunk of rows at a time
    (`textfmt.chunks`), so no copy of the whole text is held, each distinct
    weight of a chunk once (`textfmt.weight_texts`).  A weight is its
    `repr`, as in `json.dumps`, unless the weights do not sum to a finite
    number: then `json.dumps` writes each (NaN, Infinity)."""
    if as_json:
        probs = {join_labels(k): p for k, p in dist.probs.items() if p != 0.0}
        number = repr if math.isfinite(sum(probs.values())) else json.dumps
        sys.stdout.write('{"probs": {')
        sep = ""
        for part in chunks(sorted(probs)):
            sys.stdout.write(sep + ", ".join(map(": ".join, zip(map(encode_basestring_ascii, part),
                weight_texts(list(map(probs.__getitem__, part)), number)))))
            sep = ", "
        scope = ", ".join(map(encode_basestring_ascii, dist.scope))
        sys.stdout.write(f'}}, "scope": [{scope}]}}\n')
    else:
        print(" ".join(dist.scope))
        for part in chunks(_dist_rows(dist)):
            labels, probs = zip(*part)
            sys.stdout.write("\n".join(map(" : ".join, zip(labels, weight_texts(probs)))) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    doc = _load(args.files)
    results = [("model", model.name, validate_scm(model)) for model in doc.models.values()]
    results += [("abstraction", a.name, validate_abstraction(a, *doc.resolve(a)))
                for a in doc.abstractions.values()]
    if args.format == "json":
        payload = [{"kind": kind, "name": name, "ok": report.ok,
                    "issues": [vars(issue) for issue in report.issues]}
                   for kind, name, report in results]
        print(json.dumps(payload, sort_keys=True))
    else:
        for kind, name, report in results:
            status = "ok" if report.ok else "INVALID"
            print(f"{kind} {name}: {status}")
            for issue in report.issues:
                print(f"  {issue}")
    return OK if all(report.ok for _, _, report in results) else FAIL


def _cmd_graph(args) -> int:
    doc = _load(args.files)
    if args.abs_map:
        if not args.dot:
            raise ModelError("--abs on the graph command requires --dot")
        abstraction = _pick(doc.abstractions, args.abs_map, "abstraction", "--abs")
        source, target = doc.resolve(abstraction)
        sys.stdout.write(dot.abstraction_dot(abstraction, source, target))
        return OK
    model = _pick(doc.models, args.model, "model", "--model")
    dag = underlying_graph(model)
    if args.dot:
        sys.stdout.write(dot.model_dot(model))
        return OK
    if args.hom:
        src, tgt = args.hom
        paths = ["^".join(m) for m in hom_set(dag, src, tgt)]
        if args.format == "json":
            print(json.dumps(paths))
        else:
            header = f"hom({src}, {tgt}) in {model.name}: {len(paths)} morphism(s)"
            print("\n  ".join([header, *paths]))
        return OK
    if args.format == "json":
        payload = {
            "name": model.name,
            "nodes": list(dag.nodes),
            "edges": [[u, v] for u, v in dag.edges],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"model {model.name}")
        print(f"  nodes: {' '.join(dag.nodes)}")
        for u, v in dag.edges:
            print(f"  {u} -> {v}")
    return OK


def _cmd_dist(args) -> int:
    doc = _load(args.files)
    model = _pick(doc.models, args.model, "model", "--model")
    if not _reported_ok(validate_scm(model)):
        return FAIL
    dist = joint_distribution(_intervened(model, args.do))
    if args.marginal:
        dist = marginal(dist, args.marginal.split(","))
    _print_dist(dist, args.format == "json")
    return OK


@_on_valid_abstraction
def _cmd_audit(args, abstraction, source, target) -> int:
    profile = audit.audit_abstraction(abstraction, source, target, non_paths=(set(), set()))
    required = [prop.strip() for prop in args.require.split(",")] if args.require else []
    flat = profile.flat() if required else {}
    if unknown := [prop for prop in required if prop not in flat]:
        raise ModelError(f"unknown property {unknown[0]!r}; choose from {', '.join(sorted(flat))}."
                         " A row under invertibility: is required as <row>-invertible, and an"
                         " outcome-summary row as outcome-<row>")
    if args.format == "json":
        print(json.dumps(profile.to_dict(), sort_keys=True))
    else:
        print(profile.to_text())
    failed = [prop for prop in required if flat[prop] is not True]
    if failed:
        print(f"required properties not satisfied: {', '.join(failed)}", file=sys.stderr)
        return FAIL
    return OK


@_on_valid_abstraction
def _cmd_classify(args, abstraction, source, target) -> int:
    labels = taxonomy.detect_types(abstraction, source, target)
    if args.format == "json":
        print(json.dumps(labels, sort_keys=True))
    else:
        print(f"classification of {abstraction.name}")
        for layer in ("structural", "distributional"):
            names = labels[layer] or ["(none)"]
            print(f"  {layer}: {', '.join(names)}")
    return OK


def _cmd_tables(args) -> int:
    which = args.which
    names = ["structural", "distributional"] if which == "both" else [which]
    if args.truth and which == "both":
        print("--truth needs --which structural or distributional", file=sys.stderr)
        return USAGE
    ok = True
    payload = {}
    for name in names:
        computed = (
            taxonomy.structural_matrix()
            if name == "structural"
            else taxonomy.distributional_matrix()
        )
        expected = (
            taxonomy.load_table(args.truth) if args.truth else taxonomy.shipped_table(name)
        )
        diff = computed.diff(expected)
        payload[name] = {
            "cells": {
                f"{row} | {col}": computed.cells[(row, col)].value
                for row in computed.rows
                for col in computed.cols
            },
            "matches_ground_truth": not diff,
            "differences": diff,
        }
        if args.format != "json":
            print(computed.to_text())
            if diff:
                print("MISMATCH against ground truth:")
                for line in diff:
                    print(f"  {line}")
            else:
                size = len(computed.rows) * len(computed.cols)
                print(f"matches ground truth ({size}/{size} cells)")
            print()
        ok &= not diff
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    return OK if ok else FAIL


@_on_valid_abstraction
def _cmd_push(args, abstraction, source, target) -> int:
    if not _reported_ok(validate_scm(source)):
        return FAIL
    dist = joint_distribution(_intervened(source, args.do))
    pushed = pushforward(
        abstraction, dist, source, target, renormalize=args.renormalize
    )
    _print_dist(pushed, args.format == "json")
    return OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of `main`, built on the first call and shared.

    Every later call in the process returns the same object, so callers must
    not mutate it.  Parsing keeps no state in it, and help text reads the
    terminal width when it is formatted.
    """
    parser = argparse.ArgumentParser(
        prog="absaudit",
        description="Audit and classify abstraction maps between causal models.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments several subcommands share, each declared once
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("files", nargs="+")
    model = argparse.ArgumentParser(add_help=False, parents=[files])
    model.add_argument("--model", help="model name when several are loaded")
    pick = argparse.ArgumentParser(add_help=False, parents=[files])
    pick.add_argument("--abs", help="abstraction name when several are loaded")

    p = sub.add_parser("validate", parents=[files], help="check files for well-formedness")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("graph", parents=[model], help="show a model's graph")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument(
        "--abs", dest="abs_map", metavar="NAME",
        help="with --dot, render this abstraction (both graphs plus map arrows)",
    )
    p.add_argument(
        "--hom", nargs=2, metavar=("SRC", "TGT"),
        help="list all morphisms between two nodes",
    )
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dist", parents=[model], help="compute the joint distribution")
    p.add_argument(
        "--do", action="append", default=[], metavar="VAR=VALUE",
        help="intervene before computing (repeatable)",
    )
    p.add_argument("--marginal", help="comma-separated variables to keep")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("audit", parents=[pick], help="audit an abstraction's properties")
    p.add_argument(
        "--require", metavar="PROPS",
        help="comma-separated properties that must hold (exit 1 otherwise)",
    )
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("classify", parents=[pick], help="name the taxonomy types of a map")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "tables", help="recompute the admissibility tables from witnesses"
    )
    p.add_argument(
        "--which", choices=("structural", "distributional", "both"),
        default="both",
    )
    p.add_argument("--truth", help="compare against this table file instead")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("push", parents=[pick], help="push the source distribution forward")
    p.add_argument(
        "--do", action="append", default=[], metavar="VAR=VALUE",
        help="intervene on the source first (repeatable)",
    )
    p.add_argument(
        "--renormalize", action="store_true",
        help="rescale mass lost to a partial outcome layer",
    )
    p.set_defaults(func=_cmd_push)
    return parser


@functools.cache
def _table() -> dict:
    """`build_parser()` as `_read` reads it: the main parser under None and
    each command's under its name, as (parser, the defaults `parse_args`
    starts a namespace with, `{option string: action}` of the store,
    `store_true` and `append` options with no `type` and a fixed number of
    values, [its positional], which is the command on the main parser)."""
    main = build_parser()
    commands = next(a for a in main._actions if isinstance(a, argparse._SubParsersAction))
    kinds = (argparse._StoreAction, argparse._StoreTrueAction, argparse._AppendAction)
    table = {}
    for name, parser in [(None, main), *commands.choices.items()]:
        defaults = {a.dest: a.default for a in parser._actions
                    if argparse.SUPPRESS not in (a.dest, a.default)}
        defaults |= {k: v for k, v in parser._defaults.items() if k not in defaults}
        options = {s: a for a in parser._actions for s in a.option_strings
                   if type(a) in kinds and a.type is None and type(a.nargs) in (int, type(None))}
        table[name] = parser, defaults, options, [a for a in parser._actions if not a.option_strings]
    return table


def _fits(action: argparse.Action, token) -> bool:
    """Whether `parse_args` reads `token` as a value of `action` as it is."""
    return type(token) is str and token[:1] != "-" and (
        action.choices is None or token in action.choices)


def _read(argv: list) -> argparse.Namespace | None:
    """The namespace of `build_parser().parse_args(argv)`, read in one pass
    with `_table()`, each option applied by its own action; or None, for
    argparse to read `argv` and word its usage errors and help, at a token
    that is not a `str`, an option not in the table as spelled (abbreviated,
    `--opt=value`, `--`, `-h`) or without values that `_fits`, an unknown
    command, or no run of positionals or a second one."""
    table = _table()
    parser, defaults, options, plain = table[None]
    args = argparse.Namespace(**defaults)
    i, end, command = 0, len(argv), None
    while i < end:
        token = argv[i]
        if type(token) is not str:
            return None
        if token[:1] == "-":
            if (action := options.get(token)) is None:
                return None
            n = 1 if action.nargs is None else action.nargs
            values = argv[i + 1:i + 1 + n]
            if len(values) < n or not all(_fits(action, v) for v in values):
                return None
            action(parser, args, values[0] if action.nargs is None else values, token)
            i += 1 + n
        elif not plain or command is None and token not in table:
            return None
        elif command is None:
            setattr(args, plain[0].dest, token)
            parser, defaults, options, plain = table[command := token]
            vars(args).update(defaults)
            i += 1
        else:
            j = i + 1
            while j < end and _fits(plain[0], argv[j]):
                j += 1
            plain[0](parser, args, argv[i:j])
            i, plain = j, []
    return None if plain else args


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, with the cyclic garbage
    collector paused meanwhile: a command leaves no cyclic garbage to find.
    The command line (`sys.argv[1:]` when `argv` is None) is read by
    `_read`, or by the parser where `_read` hands it over; a path token is
    read as its `os.fspath`, and any other token that is not a `str` is a
    usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, token in enumerate(argv):
        if type(token) is not str:
            argv[i] = token = os.fspath(token) if isinstance(token, os.PathLike) else token
            if not isinstance(token, str):
                build_parser().error(f"a token must be a str or a path, not {type(token).__name__}")
    args = _read(argv) or build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return CAPACITY
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return FAIL
    except (AbsauditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
