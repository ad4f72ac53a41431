"""Command-line front-end.

Subcommands: nd (rational counts), ed (elliptic fixed-j counts plus the
ZT invariant), strata (shape enumeration and survivor classification),
series (vanishing sequence and root-sum relation of a net).  Output is
deterministic in all three formats; JSON carries every count as a decimal
string so consumers with 53-bit floats cannot corrupt it.

Exit codes: 0 success, 2 usage or input error, 3 corrupt cache file,
4 resource guard, 5 mathematical precondition (rank-deficient net).

Each subcommand's arguments are listed once, in ``_SUBCOMMANDS``.  A
well-formed command line (exact option names, each at most once, valid
values) is read straight from that table by ``_read_argv``; everything
else, ``--help`` and every usage error included, goes to the argparse
parser that ``_build_parser`` builds from the same table.  Building that
parser costs more than most desk requests (gettext imports ``locale`` on
its first message), so plain requests never build it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterable
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .counts import (
    MAX_PRINTABLE_DEGREE,
    CacheError,
    JClass,
    RecursionTable,
    elliptic_count,
    load_table,
    rational_count,
    save_table,
    zt_invariant,
)
from .series import (
    RankDeficientError,
    SeriesFormatError,
    _relation_from,
    parse_rational,
    root_sum_relation,
    series_from_json,
    vanishing_sequence,
)
from .strata import (
    DEFAULT_CLASS_CEILING,
    ResourceGuardError,
    enumerate_shapes,
)

__all__ = ["main"]

ND_DEGREE_CEILING = 200

_J_BY_SELECTOR = {"generic": JClass.GENERIC, "0": JClass.J_ZERO, "1728": JClass.J_1728}


class _Arg(NamedTuple):
    """One argument of a subcommand, read by ``_build_parser`` and ``_read_argv``.

    ``flag`` is ``--name`` for an option and the bare name of a positional;
    ``kind`` is int, str, a tuple of choices, or bool for a store-true flag;
    ``exclusive`` puts the option in its subcommand's one mutually exclusive group.
    """

    flag: str
    dest: str
    kind: object = str
    default: object = None
    required: bool = False
    help: str | None = None
    metavar: str | None = None
    exclusive: bool = False


_CACHE = _Arg("--cache", "cache", help="persistent count table", metavar="PATH")
_FORMAT = _Arg("--format", "output", ("plain", "json", "csv"), "plain")

# Subcommand -> (its help line, its arguments in help order).
_SUBCOMMANDS = {
    "nd": (
        "rational curve counts for d = 1..max",
        (_Arg("--max", "max_d", int, required=True), _CACHE, _FORMAT),
    ),
    "ed": (
        "elliptic fixed-j counts and the ZT invariant",
        (
            _Arg("--d", "d", int, required=True),
            _Arg("--j", "j_selector", ("generic", "0", "1728", "all"), "all"),
            _CACHE,
            _FORMAT,
        ),
    ),
    "strata": (
        "enumerate and classify stratum shapes",
        (
            _Arg("--d", "d", int, required=True),
            _Arg("--max-extra", "max_extra", int, 2),
            _Arg(
                "--full",
                "full",
                bool,
                False,
                help="materialize labelled marked classes instead of collapsed profiles",
            ),
            _Arg("--include-circuits", "include_circuits", bool, False),
            _Arg("--survivors-only", "survivors_only", bool, False),
            _Arg("--ceiling", "ceiling", int, DEFAULT_CLASS_CEILING),
            _FORMAT,
        ),
    ),
    "series": (
        "vanishing sequence and root-sum relation of a net",
        (
            _Arg("file", "file", required=True, help="series JSON document"),
            _Arg(
                "--at-infinity",
                "at_infinity",
                bool,
                False,
                help="evaluate at infinity (default)",
                exclusive=True,
            ),
            _Arg("--at", "at", help="evaluate at the exact rational P", metavar="P", exclusive=True),
            _FORMAT,
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecount",
        description=(
            "Exact counts of rational and fixed-j elliptic plane curves, "
            "stratum-shape enumeration, and vanishing-order checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, spec) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        group = None
        for arg in spec:
            target = sp
            if arg.exclusive:
                group = group or sp.add_mutually_exclusive_group()
                target = group
            if not arg.flag.startswith("-"):
                target.add_argument(arg.flag, help=arg.help, metavar=arg.metavar)
            elif arg.kind is bool:
                target.add_argument(arg.flag, action="store_true", dest=arg.dest, help=arg.help)
            else:
                target.add_argument(
                    arg.flag,
                    type=int if arg.kind is int else None,
                    choices=arg.kind if isinstance(arg.kind, tuple) else None,
                    default=arg.default,
                    required=arg.required,
                    dest=arg.dest,
                    help=arg.help,
                    metavar=arg.metavar,
                )
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """What ``_build_parser().parse_args(argv)`` returns, read without building
    the parser, or None to leave ``argv`` to argparse.

    Only plain spellings are read: the subcommand first, then exact option
    names as ``--opt value`` or ``--opt=value``, each at most once, flags
    without ``=``, and positionals and separate values that do not start with
    ``-``.  Help, abbreviations, repeats, ``--``, conflicts, missing or invalid
    values and anything else are declined, so argparse keeps every message.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    spec = _SUBCOMMANDS[argv[0]][1]
    options = {arg.flag: arg for arg in spec if arg.flag.startswith("-")}
    positionals = [arg for arg in spec if not arg.flag.startswith("-")]
    values: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            arg, value = positionals.pop(0), token
        else:
            flag, eq, value = token.partition("=")
            arg = options.get(flag)
            if arg is None or arg.dest in values:
                return None
            if arg.kind is bool:
                if eq:
                    return None
                value = True
            elif not eq:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
        if arg.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(arg.kind, tuple) and value not in arg.kind:
            return None
        values[arg.dest] = value
    if any(arg.required and arg.dest not in values for arg in spec):
        return None
    if sum(arg.exclusive and arg.dest in values for arg in spec) > 1:
        return None
    return argparse.Namespace(
        command=argv[0], **{arg.dest: values.get(arg.dest, arg.default) for arg in spec}
    )


def _table_for(args: argparse.Namespace) -> tuple[RecursionTable, int]:
    """The table to fill and the top degree its cache file holds (0 for none)."""
    if args.cache and Path(args.cache).exists():
        table = load_table(args.cache)
        return table, table.max_degree
    return RecursionTable(), 0


def _save_if_grown(args: argparse.Namespace, table: RecursionTable, stored: int) -> None:
    """Write the cache file if one is asked for and the table outgrew it."""
    if args.cache and table.max_degree > stored:
        save_table(table, args.cache)


def _emit_csv(header: list[str], rows: Iterable[Iterable]) -> None:
    """Write the header, then each row of ``rows`` as it is drawn."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_json(doc) -> None:
    print(json.dumps(doc, separators=(",", ":")))


def _cmd_nd(args: argparse.Namespace) -> int:
    if not 1 <= args.max_d <= ND_DEGREE_CEILING:
        raise ValueError(
            f"--max must be between 1 and {ND_DEGREE_CEILING}, got {args.max_d}"
        )
    table, stored = _table_for(args)
    rational_count(args.max_d, table)
    _save_if_grown(args, table, stored)
    rows = [(d, table[d]) for d in range(1, args.max_d + 1)]
    if args.output == "csv":
        _emit_csv(["d", "N"], [[str(d), str(v)] for d, v in rows])
    elif args.output == "json":
        _emit_json(
            {"d_max": args.max_d, "values": [{"d": d, "N": str(v)} for d, v in rows]}
        )
    else:
        wd = max(len(str(d)) for d, _ in rows)
        wv = max(len(str(v)) for _, v in rows)
        for d, v in rows:
            print(f"{d:>{wd}} {v:>{wv}}")
    return 0


def _cmd_ed(args: argparse.Namespace) -> int:
    if args.d > MAX_PRINTABLE_DEGREE:
        raise ResourceGuardError(
            f"--d {args.d} exceeds the ceiling {MAX_PRINTABLE_DEGREE}: counts above "
            "it have more than 4300 digits, Python's int-to-str limit"
        )
    table, stored = _table_for(args)
    classes = (
        list(_J_BY_SELECTOR.values())
        if args.j_selector == "all"
        else [_J_BY_SELECTOR[args.j_selector]]
    )
    values = {j: elliptic_count(args.d, j, table) for j in classes}
    zt = zt_invariant(args.d, table)
    _save_if_grown(args, table, stored)
    if args.output == "json":
        if args.j_selector == "all":
            _emit_json(
                {
                    "d": args.d,
                    "E": {j.value: str(v) for j, v in values.items()},
                    "ZT": str(zt),
                }
            )
        else:
            (j,) = classes
            _emit_json({"d": args.d, "j": j.value, "E": str(values[j])})
    elif args.output == "csv":
        _emit_csv(
            ["d", "j", "E", "ZT"],
            [[str(args.d), j.value, str(values[j]), str(zt)] for j in classes],
        )
    else:
        print(f"d = {args.d}")
        for j in classes:
            print(f"E[{j.value}] = {values[j]}")
        print(f"ZT = {zt}")
    return 0


def _with_cells(shown, render):
    """Each listed class with ``render(kind, e, k, dim, bound, survivor, note)``.

    Those seven cells are the class's verdict, one object that every class of
    one skeleton shares, so ``render`` runs once per verdict, not once per row.
    """
    rendered: dict[int, object] = {}
    for sc in shown:
        verdict = sc.verdict
        cells = rendered.get(id(verdict))
        if cells is None:
            cells = rendered[id(verdict)] = render(*verdict)
        yield sc, cells


def _csv_cells(kind, e, k, dim, bound, survivor, note):
    """The CSV verdict cells: kind, then those between the shape and the multiplicity."""
    return kind, (str(e), str(k), str(dim), str(bound), "true" if survivor else "false", note or "")


def _json_parts(kind, e, k, dim, bound, survivor, note):
    """A compact JSON shape object cut where its shape and its multiplicity go."""
    obj = {
        "kind": kind,
        "shape": "\0",
        "e": e,
        "k": k,
        "dim": dim,
        "bound": bound,
        "survivor": survivor,
        "note": note,
        "multiplicity": "\0",
    }
    return json.dumps(obj, separators=(",", ":")).split('"\\u0000"')


def _plain_cells(kind, e, k, dim, bound, survivor, note):
    """The plain verdict cells: the six before the multiplicity, then the note."""
    return (kind, str(e), str(k), str(dim), str(bound), "yes" if survivor else "no"), note or "-"


def _tally(shapes) -> list[list]:
    """``[verdict, classes, marked, widest]`` for each distinct verdict among
    ``shapes`` (one object per skeleton): its class count, multiplicity total
    and largest multiplicity (non-negative, so the widest), all that the
    listing summary and the plain format's multiplicity column need, from
    one pass."""
    tally: dict[int, list] = {}
    for sc in shapes:
        mult = sc.multiplicity
        entry = tally.get(id(sc.verdict))
        if entry is None:
            tally[id(sc.verdict)] = [sc.verdict, 1, mult, mult]
        else:
            entry[1] += 1
            entry[2] += mult
            if mult > entry[3]:
                entry[3] = mult
    return list(tally.values())


def _cmd_strata(args: argparse.Namespace) -> int:
    d = args.d
    shapes = enumerate_shapes(
        d,
        args.max_extra,
        collapsed=not args.full,
        include_circuits=args.include_circuits,
        ceiling=args.ceiling,
    )
    shown = [sc for sc in shapes if sc.verdict.survivor] if args.survivors_only else shapes
    # Every format writes each row as it is formed.
    write = sys.stdout.write

    if args.output == "csv":
        _emit_csv(
            ["kind", "shape", "e", "k", "dim", "bound", "survivor", "note", "multiplicity"],
            (
                (kind, sc.key, *cells, sc.multiplicity)
                for sc, (kind, cells) in _with_cells(shown, _csv_cells)
            ),
        )
        return 0
    # The summary that the other two formats print, read off the verdicts.
    tally = _tally(shapes)
    marked_total = sum(marked for _, _, marked, _ in tally)
    single_tail = (
        sum(marked for v, _, marked, _ in tally if v.k == 1 and v.kind == "tree" and v.e == 0)
        if args.max_extra >= 1
        else None
    )
    expected_tail = 2 ** (3 * d - 1) if args.max_extra >= 1 else None
    survivors = sum(classes for v, classes, _, _ in tally if v.survivor)

    if args.output == "json":
        # The bytes json.dumps(doc, separators=(",", ":")) would give the whole document.
        head = {
            "d": d,
            "max_extra": args.max_extra,
            "mode": "full" if args.full else "collapsed",
            "include_circuits": args.include_circuits,
            "survivors_only": args.survivors_only,
        }
        summary = {
            "classes": len(shapes),
            "listed": len(shown),
            "marked_total": str(marked_total),
            "single_tail_family": None if single_tail is None else str(single_tail),
            "single_tail_expected": None if expected_tail is None else str(expected_tail),
            "survivors": survivors,
        }
        write(json.dumps(head, separators=(",", ":"))[:-1] + ',"shapes":[')
        encode = json.encoder.encode_basestring_ascii
        sep = ""
        for sc, (start, middle, end) in _with_cells(shown, _json_parts):
            write(f'{sep}{start}{encode(sc.key)}{middle}"{sc.multiplicity}"{end}')
            sep = ","
        write(f'],"summary":{json.dumps(summary, separators=(",", ":"))}}}\n')
    else:
        if shown:
            # Verdict cell and multiplicity widths from the listed verdicts'
            # tally, then one pass over the keys.
            cols = ["kind", "e", "k", "dim", "bound", "survivor", "multiplicity", "shape", "note"]
            listed = [entry for entry in tally if entry[0].survivor or not args.survivors_only]
            leads = [_plain_cells(*verdict)[0] for verdict, *_ in listed]
            widths = [max(len(cols[i]), *(len(lead[i]) for lead in leads)) for i in range(6)]
            wm = max(len(cols[6]), len(str(max(widest for *_, widest in listed))))
            wk = max(len(cols[7]), max(map(len, map(attrgetter("key"), shown))))
            header = zip(cols, [*widths, wm, wk, 0])
            write("  ".join(col.ljust(w) for col, w in header).rstrip() + "\n")

            def padded(*verdict):
                lead, note = _plain_cells(*verdict)
                return "".join(c.ljust(w) + "  " for c, w in zip(lead, widths)), "  " + note

            for sc, (lead, note) in _with_cells(shown, padded):
                line = f"{lead}{sc.multiplicity:<{wm}}  {sc.key:<{wk}}{note}"
                write(line.rstrip() + "\n")
        write(f"classes: {len(shapes)} (listed: {len(shown)})\n")
        write(f"marked total: {marked_total}\n")
        if single_tail is not None:
            write(
                f"single-tail family: {single_tail} "
                f"(expected 2^{3 * args.d - 1} = {expected_tail})\n"
            )
        write(f"survivors: {survivors}\n")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    series = series_from_json(text)
    point = None if args.at is None else parse_rational(args.at, "--at")
    point_label = "infinity" if point is None else str(point)
    seq = vanishing_sequence(series, point)
    relation = _relation_from(series, seq.orders) if point is None else root_sum_relation(series)
    k_text = None if relation is None else str(relation.k)
    degenerate = relation is not None and relation.degenerate
    criterion = relation is not None
    if args.output == "json":
        _emit_json(
            {
                "degree": series.degree,
                "point": point_label,
                "orders": list(seq.orders),
                "K": k_text,
                "degenerate": degenerate,
                "criterion": criterion,
            }
        )
    elif args.output == "csv":
        _emit_csv(
            ["degree", "point", "a0", "a1", "a2", "K", "degenerate", "criterion"],
            [
                [
                    str(series.degree),
                    point_label,
                    str(seq.a0),
                    str(seq.a1),
                    str(seq.a2),
                    k_text or "",
                    "true" if degenerate else "false",
                    "true" if criterion else "false",
                ]
            ],
        )
    else:
        print(f"degree = {series.degree}")
        print(f"point = {point_label}")
        print(f"orders = ({seq.a0}, {seq.a1}, {seq.a2})")
        print(f"K = {k_text if k_text is not None else 'absent'}")
        print(f"degenerate = {'true' if degenerate else 'false'}")
        print(f"criterion = {'true' if criterion else 'false'}")
    return 0


_COMMANDS = {"nd": _cmd_nd, "ed": _cmd_ed, "strata": _cmd_strata, "series": _cmd_series}


def _glue_at_values(argv: list[str]) -> list[str]:
    """Rewrite ``--at P`` as ``--at=P``: argparse reads a negative point
    such as -2/5 standing alone as an option, not as the value of --at."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--at":
            out[-1] = f"--at={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _glue_at_values(sys.argv[1:] if argv is None else argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
        # argparse 3.11 drops the '--' of '--opt=--', leaving []: the value is literal.
        for dest in [dest for dest, value in vars(args).items() if value == []]:
            setattr(args, dest, "--")
    try:
        return _COMMANDS[args.command](args)
    except CacheError as exc:
        print(f"error: cache: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RankDeficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (SeriesFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
