"""Command-line front end.

Subcommands map one-to-one onto library capabilities:

    nicf expand | convergents | singularize     digit-level queries
    dim                                         certified dimension interval
    pressure                                    pressure curve as CSV
    spectrum                                    greedy construction trace
    ledger                                      inequality re-verification
    vertex-letters                              the induced-alphabet ordering
    appendix                                    worked similarity systems

Exit codes: 0 success, 2 parse errors, 3 indeterminate certification
(a dimension tolerance that was not achieved, or a ``spectrum`` sweep
that certified no letter), 4 a numeric-range failure (a word
denominator, partition sum or any other value outside the double range,
or an exact power over 2**16 bits, see ``exactnum.pow_enclosure``).  A
divergent sum is a result, not an error: ``pressure`` prints ``inf`` at
every t at or below theta, and ``appendix`` prints ``inf`` rows for a
vertex with a loop family at every t <= 0.  Every ``--t-grid`` start,
stop and step must be a finite double, as t is printed as one, and a
grid holds at most 100,000 points (checked before any row is computed).
``--threads`` is accepted and has no effect.  ``--depth``, ``--budget``,
``--count``, ``--bits``, ``--max-len`` and ``--digits`` are checked to
be at least 1, ``--count``, ``--budget`` and ``--depth`` at most 100,000
(letters are listed before any output, and a one-letter word tree is
not bounded by the word budget), and ``--max-len`` at most 1,000, when
the arguments are parsed; a range spec may hold 100,000 letters, and a
``dim --tol`` must be positive.  ``--bits`` is an ``appendix`` option
only (the precision of the worked examples' exact roots); ``dim``,
``pressure`` and ``spectrum`` enclose the distortion constant K at one
fixed precision (128-bit surds), so no option sets it.  ``main`` builds
its parser once per process and reuses it.  All numeric CSV fields are
shortest-round-trip doubles rounded outward from the exact rational
bounds, so downstream consumers keep two-sided rigor.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

# let values leading with a negative digit (-8/21, "-3,3") pass as arguments
_NEGATIVE_VALUE = re.compile(r"^-\d")

from .cf_core import Word, convergents, nicf_digits, singularize
from .exactnum import DivergentTailError, NumericRangeError
from .exactnum import float_down as _out_lo, float_up as _out_hi
from .ledger import case_ids, render_table, results_to_json, run_all, run_case
from .nicf_system import vertex_alphabet
from .pressure_dim import (
    APPENDIX_BITS,
    APPENDIX_EDGES,
    WORD_BUDGET,
    DigitIfs,
    appendix_example,
    dim_interval,
    pressure_bounds,
)
from .spectrum import construct
from .symbolic import AlphabetSelection

PARSE_ERROR = 2
INDETERMINATE = 3
NUMERIC_RANGE = 4


class SpecParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"alphabet spec error at byte {offset}: {message}")
        self.offset = offset


_MAX_COUNT = 100_000  # most range letters, grid points, --count, --budget, --depth
_MAX_LEN = 1_000  # longest appendix loop, --max-len

# range form -> (separator, usage, AlphabetSelection constructor)
_RANGE_FORMS = {
    "abs": ("..", "abs:LO..HI", "abs_range"),
    "absmin": (":", "absmin:LO:TRUNC", "cofinite"),
}


def parse_alphabet_spec(text: str) -> AlphabetSelection:
    """Grammar: spec := item ("," item)*
    item := INT | "abs:" INT ".." INT | "absmin:" INT ":" INT
    Whitespace is ignored; INT may be negative only in the bare form.  Only
    the syntax and a range form's size (at most _MAX_COUNT letters) are
    checked here; the alphabet rules are ``AlphabetSelection``'s, and
    their errors are reported at byte 0."""
    stripped = "".join(text.split())
    if not stripped:
        raise SpecParseError("empty spec", 0)
    items = stripped.split(",")
    offsets = []
    pos = 0
    for item in items:
        offsets.append(pos)
        pos += len(item) + 1

    def fail(i: int, msg: str):
        raise SpecParseError(msg, offsets[i])

    if len(items) == 1 and items[0].startswith(("abs:", "absmin:")):
        form, body = items[0].split(":", 1)
        sep, usage, kind = _RANGE_FORMS[form]
        if sep not in body:
            fail(0, f"expected {usage}")
        make = getattr(AlphabetSelection, kind)
        args = [_int_or_fail(s, 0, fail) for s in body.split(sep, 1)]
        count = 2 * (args[1] - args[0] + 1)
        if count > _MAX_COUNT:
            fail(0, f"the range has {count:,} letters, over {_MAX_COUNT:,}")
    else:
        letters: List[int] = []
        for i, item in enumerate(items):
            if item.startswith(("abs:", "absmin:")):
                fail(i, "range forms cannot be mixed with explicit digits")
            letters.append(_int_or_fail(item, i, fail))
        make, args = AlphabetSelection.explicit, [letters]
    try:
        return make(*args)
    except ValueError as exc:
        raise SpecParseError(str(exc), 0)


def _int_or_fail(s: str, i: int, fail):
    try:
        return int(s)
    except ValueError:
        fail(i, f"not an integer: {s!r}")


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r} ({exc})")


def _parse_t_grid(spec: str) -> List[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("t-grid must be start:stop:step")
    a, b, step = (_parse_rational(p) for p in parts)
    try:
        float(a), float(b), float(step)
    except OverflowError:
        raise ValueError("t-grid values must be finite doubles") from None
    if step <= 0:
        raise ValueError("t-grid step must be positive")
    count = max((b - a) // step + 1, 0)
    if count > _MAX_COUNT:
        raise ValueError(f"t-grid has {count:,} points, over {_MAX_COUNT:,}")
    return [a + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _write_csv(rows: List[str], path: Optional[str]) -> int:
    """Header plus data rows to ``path``, or to stdout when it is None."""
    text = "\n".join(rows) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows) - 1} rows to {path}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_nicf(args) -> int:
    if args.nicf_cmd == "expand":
        x = _parse_rational(args.value)
        print(json.dumps(nicf_digits(x, args.digits)))
        return 0
    if args.nicf_cmd == "convergents":
        x = _parse_rational(args.value)
        digits = nicf_digits(x, args.digits)
        if not digits:
            print("n    p_n    q_n")
            return 0
        pairs = convergents(Word(digits))
        widths = max(len(str(p)) for p, _ in pairs), max(len(str(q)) for _, q in pairs)
        print(f"{'n':<4} {'p_n':>{widths[0]}} {'q_n':>{widths[1]}}")
        for n, (p, q) in enumerate(pairs):
            print(f"{n:<4} {p:>{widths[0]}} {q:>{widths[1]}}")
        return 0
    if args.nicf_cmd == "singularize":
        rcf = [int(a) for a in args.rcf.split(",") if a.strip()]
        print(json.dumps(singularize(rcf)))
        return 0
    raise AssertionError


def _cmd_dim(args) -> int:
    sel = parse_alphabet_spec(args.alphabet)
    tol = _parse_rational(args.tol)
    di = dim_interval(DigitIfs(sel), args.depth, tol)
    print(json.dumps({"lo": _out_lo(di.lo), "hi": _out_hi(di.hi),
                      "depth": di.depth}))
    return 0 if di.achieved() else INDETERMINATE


def _cmd_pressure(args) -> int:
    system = DigitIfs(parse_alphabet_spec(args.alphabet))
    depth = max(system.ladder(args.depth, WORD_BUDGET))
    grid = _parse_t_grid(args.t_grid)
    rows = ["t,pressure_lo,pressure_hi"]
    for t in grid:
        try:
            pb = pressure_bounds(system, t, depth)
        except DivergentTailError:
            rows.append(f"{float(t)!r},inf,inf")
            continue
        rows.append(f"{float(t)!r},{_out_lo(pb.lo)!r},{_out_hi(pb.hi)!r}")
    return _write_csv(rows, args.csv)


def _cmd_spectrum(args) -> int:
    trace = construct(_parse_rational(args.target), args.system, args.budget,
                      args.depth)
    print(json.dumps(trace.to_json_dict(), indent=2))
    return 0 if trace.final_letters else INDETERMINATE


def _cmd_ledger(args) -> int:
    if args.case:
        results = [run_case(args.case)]
    else:
        results = run_all()
    if args.json:
        print(results_to_json(results))
    else:
        print(render_table(results))
    return 0


def _cmd_vertex_letters(args) -> int:
    letters = vertex_alphabet(args.count)
    print(json.dumps([str(l) for l in letters]))
    return 0


def _cmd_appendix(args) -> int:
    ratio = _parse_rational(args.ratio)
    vertices = ("v", "w", "z") if args.example == "cycle4" else ("v",)
    system = appendix_example(args.example,
                              {e: ratio for e in APPENDIX_EDGES[args.example]})
    grid = _parse_t_grid(args.t_grid)
    rows = ["t,vertex,closed_lo,closed_hi,enclosure_lo,enclosure_hi,consistent"]
    for t in grid:
        for v in vertices:
            try:
                closed = system.closed_pressure(v, t, bits=args.bits)
                enc = system.enumerated_pressure(v, t, args.max_len, bits=args.bits)
            except DivergentTailError:
                rows.append(f"{float(t)!r},{v},inf,inf,inf,inf,")
                continue
            consistent = max(enc.lo, closed.lo) <= min(enc.hi, closed.hi)
            rows.append(
                f"{float(t)!r},{v},{_out_lo(closed.lo)!r},{_out_hi(closed.hi)!r},"
                f"{_out_lo(enc.lo)!r},{_out_hi(enc.hi)!r},{int(consistent)}")
    return _write_csv(rows, args.csv)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1, got {value}")
    return value


def _at_most(cap: int):
    """An argument type: an integer from 1 to ``cap``."""
    def parse(text: str) -> int:
        value = _at_least_one(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"at most {cap:,}, got {value:,}")
        return value
    return parse


class _AppendixOnly(argparse.Action):
    def __call__(self, parser, *_):
        parser.error("--bits is an option of the appendix subcommand only")


def _allow_negative_values(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = _NEGATIVE_VALUE
    for action in p._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                _allow_negative_values(child)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nicfdim",
        description="rigorous dimension bounds for nearest-integer "
                    "continued-fraction digit systems")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    ap.add_argument("--bits", nargs="?", action=_AppendixOnly,
                    help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="cmd", required=True)

    nicf = sub.add_parser("nicf", help="continued-fraction digit queries")
    nsub = nicf.add_subparsers(dest="nicf_cmd", required=True)
    p = nsub.add_parser("expand", help="nearest-integer digits of a rational")
    p.add_argument("value")
    p.add_argument("--digits", type=_at_least_one, default=20)
    p = nsub.add_parser("convergents", help="p_n, q_n table of a rational")
    p.add_argument("value")
    p.add_argument("--digits", type=_at_least_one, default=20)
    p = nsub.add_parser("singularize", help="rewrite a regular digit block")
    p.add_argument("--rcf", required=True, help='comma list, e.g. "2,1,3"')

    p = sub.add_parser("dim", help="certified dimension interval")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--depth", type=_at_most(_MAX_COUNT), default=12)
    p.add_argument("--tol", default="0.02")

    p = sub.add_parser("pressure", help="pressure curve over a t grid")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--t-grid", required=True, help="start:stop:step")
    p.add_argument("--depth", type=_at_most(_MAX_COUNT), default=8, help="capped at the "
                   f"deepest with at most {WORD_BUDGET:,} words (default 8)")
    p.add_argument("--csv", help="output path (stdout if omitted)")

    p = sub.add_parser("spectrum", help="greedy digit-set construction")
    p.add_argument("--target", required=True)
    p.add_argument("--system", choices=("phi_f", "phi_v"), default="phi_f")
    p.add_argument("--budget", type=_at_most(_MAX_COUNT), default=20)
    p.add_argument("--depth", type=_at_most(_MAX_COUNT), default=10)

    p = sub.add_parser("ledger", help="re-verify the case inequalities")
    p.add_argument("--case", choices=case_ids())
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vertex-letters", help="induced-alphabet ordering")
    p.add_argument("--count", type=_at_most(_MAX_COUNT), default=22)

    p = sub.add_parser("appendix", help="worked similarity systems")
    p.add_argument("--example", choices=tuple(APPENDIX_EDGES), required=True)
    p.add_argument("--ratio", default="1/3")
    p.add_argument("--t-grid", required=True, help="start:stop:step")
    p.add_argument("--max-len", type=_at_most(_MAX_LEN), default=24)
    p.add_argument("--bits", type=_at_least_one, default=APPENDIX_BITS,
                   help=f"precision of the exact roots (default {APPENDIX_BITS})")
    p.add_argument("--csv", help="output path (stdout if omitted)")
    _allow_negative_values(ap)
    return ap


_DISPATCH = {
    "nicf": _cmd_nicf,
    "dim": _cmd_dim,
    "pressure": _cmd_pressure,
    "spectrum": _cmd_spectrum,
    "ledger": _cmd_ledger,
    "vertex-letters": _cmd_vertex_letters,
    "appendix": _cmd_appendix,
}


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses: ``parse_args`` returns a new
    namespace each call and leaves the parser as it was, errors included."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except NumericRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_RANGE
    except (SpecParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
