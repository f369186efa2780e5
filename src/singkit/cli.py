"""Command-line interface.

Every subcommand prints a single JSON report to stdout:

    {"command": ..., "inputs": ..., "results": ..., "checks": [...], "warnings": [...]}

Exit status: 0 = computed and all checks passed, 1 = a consistency
check failed, 2 = bad input (parse error, malformed config, missing file),
an input whose work would pass a limit (PARSE_WORK_LIMIT,
ROOT_SEARCH_LIMIT, LOCAL_WORK_LIMIT, RANK_WORK_LIMIT) or a stdout closed
before the report was written, with a one-line diagnostic.  _write makes
a report in one pass, with the bytes of json.dumps(corpus.jsonify(report),
indent=2, sort_keys=True), so identical inputs give byte-identical output.
No computation is randomized: `--seed` is echoed in the report's inputs
and nothing else depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import corpus, dualcomplex
from .errors import ConfigError, ConsistencyError, ParseError
# unused here; perfbench/tests/test_perfbench.py checks that the tracer rebinds it
from .localring import tjurina_number  # noqa: F401


_encode_str = json.encoder.encode_basestring_ascii  # the C function
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(value, out, indent):
    """Append to out the pieces of json.dumps(corpus.jsonify(value),
    indent=2, sort_keys=True), for value nested where indent (a newline
    and two spaces per level) starts a line: one pass, no jsonified copy."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append(_CONSTANTS[value])
    elif kind is Fraction:
        out.append(_encode_str(str(value)))
    elif isinstance(value, dict):  # subclasses too, so nesting stays indented
        if not value:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key, item in sorted(value.items()):
            key = key if isinstance(key, str) else json.dumps(key)
            out.append(f"{sep}{inner}{_encode_str(key)}: ")
            _write(item, out, inner)
            sep = ","
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, out, inner)
            sep = ","
        out.append(indent + "]")
    else:  # floats (INFINITE is "infinite") and subclasses of str and int
        out.append(json.dumps(corpus.jsonify(value)))


def _emit(command, inputs, results, checks=(), warnings=()):
    checks = list(checks)
    out = []
    _write({"command": command, "inputs": inputs, "results": results,
            "checks": checks, "warnings": list(warnings)}, out, "\n")
    print("".join(out))
    return 1 if any(not c.get("pass", True) for c in checks) else 0


def _parse_vars(text):
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise ConfigError("at least one variable name is required")
    return names


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _write_dot(args, data, results):
    """--dot: render the configuration to args.dot and name the file in results."""
    if not args.dot:
        return
    try:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dualcomplex.config_to_dot(dualcomplex.config_from_dict(data)))
    except OSError as exc:
        raise ConfigError(f"cannot write {args.dot}: {exc}") from exc
    results["dot_file"] = args.dot


# -- subcommands -----------------------------------------------------------------
#
# Each subcommand turns its arguments into the inputs of the corpus operation
# of its kind and emits that operation's (results, checks, warnings).


def _cmd_tjurina_milnor(args):
    op = corpus.tjurina if args.command == "tjurina" else corpus.milnor
    return _emit(args.command, {"poly": args.poly, "vars": args.vars},
                 *op({"poly": args.poly, "vars": _parse_vars(args.vars)}))


def _cmd_smallres(args):
    data = _load_json(args.germ)
    return _emit("smallres", {"germ": data}, *corpus.smallres({"germ": data}))


def _cmd_dc_invariants(args):
    data = _load_json(args.config)
    results, checks, warnings = corpus.link({"config": data})
    _write_dot(args, data, results)
    return _emit("dualcomplex-invariants", {"config": data, "seed": args.seed},
                 results, checks, warnings)


def _cmd_dc_classify(args):
    data = _load_json(args.config)
    results, checks, warnings = corpus.classify({"config": data})
    _write_dot(args, data, results)
    return _emit("dualcomplex-classify", {"config": data}, results, checks, warnings)


def _cmd_defspace_verify(args):
    return _emit("defspace-verify", {"n": args.n, "seed": args.seed},
                 *corpus.defspace({"n": args.n}))


def _cmd_defspace_fiber(args):
    b_values = []
    for item in filter(None, (v.strip() for v in args.b.split(","))):
        try:
            b_values.append(Fraction(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"--b must be comma-separated rationals: {item!r}") from exc
    inputs = {"n": args.n, "b": b_values}
    return _emit("defspace-fiber", inputs, *corpus.fiber(inputs))


def _cmd_corpus(args):
    entries = None
    if args.path is not None:
        entries = _load_json(args.path)
        if not isinstance(entries, list):
            raise ConfigError("a corpus file must be a JSON list of entries")
    checks = corpus.run_corpus(entries)
    summary = {
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": [c["name"] for c in checks if not c["pass"]],
    }
    return _emit("corpus", {"path": args.path, "seed": args.seed},
                 summary, checks=checks)


# -- wiring ----------------------------------------------------------------------

SEED_HELP = "echoed in the report's inputs; no number depends on it"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="singkit",
        description="exact invariants of isolated threefold singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tjurina", help="Tjurina number of an isolated hypersurface germ")
    p.add_argument("poly", help="polynomial with rational coefficients, e.g. 'x^2+y^2+z^2+w^6'")
    p.add_argument("--vars", default="x,y,z,w", help="comma-separated variable names")
    p.set_defaults(func=_cmd_tjurina_milnor)

    p = sub.add_parser("milnor", help="Milnor number of an isolated hypersurface germ")
    p.add_argument("poly")
    p.add_argument("--vars", default="x,y,z,w")
    p.set_defaults(func=_cmd_tjurina_milnor)

    p = sub.add_parser("smallres", help="invariant package of a suspended plane-curve germ")
    p.add_argument("germ", help="path to a germ description (JSON)")
    p.set_defaults(func=_cmd_smallres)

    p = sub.add_parser("dualcomplex-invariants",
                       help="numerical invariants of an exceptional divisor configuration")
    p.add_argument("config", help="path to a divisor configuration (JSON)")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.add_argument("--dot", metavar="PATH",
                   help="write a Graphviz rendering of the configuration to PATH")
    p.set_defaults(func=_cmd_dc_invariants)

    p = sub.add_parser("dualcomplex-classify",
                       help="match a divisor configuration against the degeneration types")
    p.add_argument("config")
    p.add_argument("--dot", metavar="PATH",
                   help="write a Graphviz rendering of the configuration to PATH")
    p.set_defaults(func=_cmd_dc_classify)

    p = sub.add_parser("defspace-verify",
                       help="verify the root-splitting map identities for one degree")
    p.add_argument("--n", type=int, required=True, help="degree of the target polynomial")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.set_defaults(func=_cmd_defspace_verify)

    p = sub.add_parser("defspace-fiber",
                       help="count fiber points of the root-splitting map over given coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", required=True,
                   help="comma-separated rational coefficients b_(n-2),...,b_0 "
                        "(use --b=-1,0 when the first value is negative)")
    p.set_defaults(func=_cmd_defspace_fiber)

    p = sub.add_parser("corpus", help="run the bundled (or an external) regression corpus")
    p.add_argument("path", nargs="?", default=None,
                   help="optional path to a JSON corpus; defaults to the bundled entries")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.set_defaults(func=_cmd_corpus)

    return parser


_parser = None  # built on the first call of main; parse_args leaves it unchanged


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except ConsistencyError as exc:
            code = _emit(args.command, {}, {},
                         [{"name": exc.relation, "pass": False, "detail": str(exc)}])
        except (ParseError, ConfigError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # the interpreter's last flush of what is left goes to devnull, silently
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
