"""Command line front end.

Subcommands:

    check             run relation check families, write a report
    act               apply a serialized operator to a serialized state
    bracket           bracket two toroidal elements
    export-constants  dump the full finite bracket table
    replay            re-run a recorded counterexample

JSON arguments (--op, --x, --y) accept either a path to a JSON file or
inline JSON text.  All files are UTF-8, newline terminated.

Exit codes: 0 success, 1 a verified failure, 2 a usage, input or config
error (one ``error:`` line on stderr) or a counterexample that did not
reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize as ser
from . import verifier
from .superalgebra import Superalgebra
from .verifier import CheckConfig


def _load_json_arg(text: str):
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _write_out(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    families = []
    if args.family:
        for item in args.family:
            families.extend(f for f in item.split(",") if f)
    else:
        families = list(verifier.FAMILY_ORDER)
    cfg = CheckConfig(
        M=args.M,
        N=args.N,
        q=args.q,
        max_degree=args.max_degree,
        exponent_box=args.box,
        samples=args.samples,
        seed=args.seed,
    )
    report = verifier.run(cfg, families=families)
    for fam, fr in report["families"].items():
        for clause, cell in fr["clauses"].items():
            status = "ok" if cell["ok"] else "FAIL"
            adj = f" adjudicated={cell['adjudicated']}" if cell["adjudicated"] else ""
            print(f"{fam}/{clause}: {status} pass={cell['pass']} fail={cell['fail']}{adj}")
    for adj in report["adjudications"]:
        print(f"adjudicated {adj['family']}/{adj['clause']} x{adj['count']}: {adj['note']}")
    print("all_pass:", report["all_pass"])
    if args.report:
        _write_out(verifier.report_text(report), args.report)
    return 0 if report["all_pass"] else 1


def _cmd_act(args) -> int:
    op = ser.operator_from_obj(_load_json_arg(args.op))
    state = ser.tensor_state_from_obj(_load_json_arg(args.state))
    image = op.apply(state)
    _write_out(ser.dumps(ser.tensor_state_to_obj(image)), args.out)
    return 0


def _cmd_bracket(args) -> int:
    alg = Superalgebra(args.M, args.N)
    x = ser.toroidal_from_obj(_load_json_arg(args.x))
    y = ser.toroidal_from_obj(_load_json_arg(args.y))
    for el in (x, y):
        for key in el.terms:
            exp = key[3] if key[0] == "T" else key[2]
            if len(exp) != args.q:
                raise ValueError(f"element exponent {list(exp)} does not match q={args.q}")
    out = alg.bracket_toroidal(x, y)
    _write_out(ser.dumps(ser.toroidal_to_obj(out)), args.out)
    return 0


def _cmd_export_constants(args) -> int:
    alg = Superalgebra(args.M, args.N)
    table = []
    for x in alg.symbols():
        for y in alg.symbols():
            table.append(
                {
                    "x": {"i": x[0], "j": x[1]},
                    "y": {"i": y[0], "j": y[1]},
                    "bracket": ser.gl_element_to_obj(alg.bracket(x, y)),
                }
            )
    _write_out(ser.dumps({"M": args.M, "N": args.N, "table": table}), args.out)
    return 0


def _cmd_replay(args) -> int:
    with open(args.counterexample, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    result = verifier.replay_counterexample(record)
    print(ser.dumps(result), end="")
    if result["reproduced"]:
        print("counterexample reproduced", file=sys.stderr)
        return 0
    print("counterexample did NOT reproduce", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supertoroidal",
        description="Exact checker for the vertex-plus-boson toroidal representation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run relation check families")
    p.add_argument("--family", action="append",
                   help="family id (repeatable, comma lists allowed); default: all")
    p.add_argument("--M", type=int, default=3)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p.add_argument("--box", type=int, default=2)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("act", help="apply an operator to a state")
    p.add_argument("--op", required=True, help="operator JSON (file or inline)")
    p.add_argument("--state", required=True, help="state JSON (file or inline)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("bracket", help="bracket two toroidal elements")
    p.add_argument("--x", required=True, help="element JSON (file or inline)")
    p.add_argument("--y", required=True, help="element JSON (file or inline)")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("export-constants", help="dump the finite bracket table")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export_constants)

    p = sub.add_parser("replay", help="re-run a recorded counterexample")
    p.add_argument("--counterexample", required=True)
    p.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        msg = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
