"""Command-line surface: stable JSON file formats, deterministic reports.

Exit codes: 0 success / property true, 3 property false, 4 input or usage error,
5 window overflow.  Every report is a UTF-8, newline-terminated JSON document
with a schema version field "v": 1; key order is sorted, so identical inputs
(including seeds) give byte-identical output.  `run` is the one place input
errors are reported: an `InputError` raised here and every `ValueError` a
library call raises end in exit 4 with the message as the report's "error".

The argparse parser `_PARSER` is the one definition of the command line.
When argv starts with a command, `run` hands the rest of it to that
command's subparser (`_COMMANDS`), which is the parser the full parse hands
it to, so help, usage and error texts are the same; any other argv (none, an
unknown command, -h or --help) takes the full parse.  Each input file is read
once, as bytes decoded as strict UTF-8.

Only the layers the parser and the shared loaders need are imported here
(`relations`, `tableau` and `pyramid`, with the `exact_arith` that `tableau`
imports).  Each command imports its
own layer when it runs: `enumerate-basis`, `verify-relations` and
`irreducible` load `gt_module` (with `supports`), `tensor-check` loads
`yangian_tensor` too, and `check-admissible`, `reduce` and `rr-remove` load
neither.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .pyramid import Pyramid
from .relations import (
    RelationSet,
    is_admissible,
    noncritical_satisfying_tableau,
    reduce_set,
    rr_remove,
)
from .tableau import TriIndex, tableau_from_json

if TYPE_CHECKING:
    from .gt_module import BasisWindow

EXIT_OK = 0
EXIT_FALSE = 3
EXIT_INPUT = 4
EXIT_OVERFLOW = 5

# Upper bounds of verify-relations' --instantiations and --budget.  A case
# that passes on a nonempty hit set is evaluated in the exact context of every
# instantiation, so the work grows with the instantiations; the relation cases
# grow with the square of the budget.  An unbounded value costs unbounded time
# and memory; the defaults are 3 and 2.
MAX_INSTANTIATIONS = 64
MAX_BUDGET = 16

# Upper bound of the magnitude of a decimal exponent in a weight or point.
# `Fraction("1e100000000")` builds 10**100000000 exactly and takes minutes.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)")


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    """The JSON object in the file: its bytes read at once and decoded as
    strict UTF-8, so a byte-order mark or a UTF-16 file is an error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = json.loads(data.decode("utf-8"))
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except OSError as exc:  # a directory, an unreadable file
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # e.g. an integer literal past int's digit limit
        raise InputError(f"unreadable JSON in {path}: {exc}")
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise InputError(f"unreadable JSON in {path}: nested too deeply")
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return obj


def _read(path: str, parse):
    """`parse` of the version-1 JSON object in the file; its errors name the file."""
    obj = _load_json(path)
    if type(obj.get("v")) is not int or obj["v"] != 1:
        raise InputError(f"{path}: expected schema version field \"v\": 1")
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


def _load_relations(path: str) -> RelationSet:
    return _read(path, lambda obj: RelationSet.from_json(Pyramid.from_json(obj["pyramid"]), obj))


def _load_tableau(path: str, pi: Pyramid):
    tab = _read(path, tableau_from_json)
    if tab.pyramid != pi:
        raise InputError(f"{path}: tableau is on {tab.pyramid}, the relations on {pi}")
    return tab


def _load_seed(tableau_path: str | None, C: RelationSet):
    """The --tableau seed, or the noncritical satisfying tableau of C without one."""
    if tableau_path is not None:
        return _load_tableau(tableau_path, C.pyramid)
    return noncritical_satisfying_tableau(C)


def _rational(x) -> Fraction:
    """A weight or point entry as a Fraction; ValueError on a zero denominator
    or an exponent past MAX_EXPONENT."""
    text = str(x)
    exp = _EXPONENT.search(text)
    if exp and (len(exp.group(1)) > len(str(MAX_EXPONENT)) or int(exp.group(1)) > MAX_EXPONENT):
        raise ValueError(f"{text!r} has a decimal exponent above {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _load_weights(path: str):
    from .yangian_tensor import GlWeight

    def parse(obj):
        raw_weights = obj["weights"]
        if not isinstance(raw_weights, list) or not all(isinstance(w, list) for w in raw_weights):
            raise ValueError("weights must be a JSON array of arrays")
        raw_points = obj.get("points", [0] * len(raw_weights))
        if not isinstance(raw_points, list):
            raise ValueError("points must be a JSON array")
        weights = [GlWeight([_rational(x) for x in w]) for w in raw_weights]
        return weights, [_rational(x) for x in raw_points]

    weights, points = _read(path, parse)
    if len(points) != len(weights):
        raise InputError(f"{path}: need one evaluation point per weight")
    return weights, points


# Built once: `json.dumps` with options builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(report: dict) -> None:
    sys.stdout.write(_ENCODER.encode({**report, "v": 1}) + "\n")


def _triple(t: TriIndex) -> list[int]:
    return [t.k, t.i, t.j]


def _jsonable(obj):
    if isinstance(obj, TriIndex):
        return _triple(obj)
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, list):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


class _Fragments(dict):
    """`,[[k,i,j],v]` for each offset v of one triple, made on first lookup;
    offset 0 writes nothing.  It holds only the offsets looked up."""

    def __init__(self, t: TriIndex):
        super().__init__({0: ""})
        self.prefix = f",[[{t.k},{t.i},{t.j}],"

    def __missing__(self, v: int) -> str:
        text = self[v] = f"{self.prefix}{v}]"
        return text


def _keys_json(window: BasisWindow) -> str:
    """The text `json.dumps` writes, compact, for `[window.key(c) for c in
    window.coords]`, built with no key: each nonzero coordinate is the
    fragment `,[[k,i,j],v]`, in `window.key_order`, formatted the first time
    its value shows, and a member drops its first comma."""
    slots = [(k, _Fragments(t)) for t, k in window.key_order]
    return "[" + ",".join(
        ["[" + "".join([f[c[k]] for k, f in slots])[1:] + "]" for c in window.coords]
    ) + "]"


def check_admissible_cmd(relations_path):
    """Decide admissibility of a relation set; exit 3 when not admissible."""
    C = _load_relations(relations_path)
    verdict, certificate = is_admissible(C)
    _emit(
        {
            "command": "check-admissible",
            "admissible": verdict,
            "certificate": _jsonable(certificate),
        }
    )
    return EXIT_OK if verdict else EXIT_FALSE


def reduce_cmd(relations_path):
    """Print the unique reduced representative of a noncritical relation set."""
    R = reduce_set(_load_relations(relations_path))
    _emit(
        {
            "command": "reduce",
            "pyramid": R.pyramid.to_json(),
            **R.to_json(),
        }
    )
    return EXIT_OK


def rr_remove_cmd(relations_path, triple_str):
    """Drop all relations incident to an extremal triple."""
    C = _load_relations(relations_path)
    try:
        k, i, j = (int(x) for x in triple_str.split(","))
    except ValueError:
        raise InputError(f"bad triple {triple_str!r}; expected k,i,j")
    R = rr_remove(C, TriIndex(k, i, j))
    _emit(
        {
            "command": "rr-remove",
            "triple": [k, i, j],
            "pyramid": R.pyramid.to_json(),
            **R.to_json(),
        }
    )
    return EXIT_OK


def enumerate_basis_cmd(relations_path, tableau_path, radius):
    """List the window shifts satisfying the relation set around a seed."""
    from .gt_module import BasisWindow

    C = _load_relations(relations_path)
    seed = _load_seed(tableau_path, C)
    window = BasisWindow(C, seed, radius)
    # The members are rendered from the coordinates in `TriIndex` order, with
    # no key or shift built: the bytes json.dumps writes in `_emit` for the
    # report whose "members" are the keys, (triple, offset) pairs.
    members = _keys_json(window)
    sys.stdout.write(
        f'{{"command":"enumerate-basis","count":{len(window.coords)},'
        f'"members":{members},"radius":{radius},"v":1}}\n'
    )
    return EXIT_OK


def verify_relations_cmd(relations_path, tableau_path, radius, budget, instantiations, seed):
    """Run the defining-relation oracle; exit 3 on violations, 5 on overflow."""
    from .gt_module import WindowOverflowError, report_passes, verify_defining_relations

    C = _load_relations(relations_path)
    tab = _load_seed(tableau_path, C)
    try:
        report = verify_defining_relations(
            C, tab, radius, budget, instantiations=instantiations, seed0=seed
        )
    except WindowOverflowError as exc:
        _emit({"command": "verify-relations", "overflow": str(exc)})
        return EXIT_OVERFLOW
    passes = report_passes(report)
    _emit(
        {
            "command": "verify-relations",
            "radius": radius,
            "budget": budget,
            "instantiations": instantiations,
            "seed": seed,
            "passes": passes,
            "members": report["members"],
            "families": report["families"],
            "violations": _jsonable(report["violations"]),
        }
    )
    return EXIT_OK if passes else EXIT_FALSE


def irreducible_cmd(relations_path, tableau_path):
    """Test irreducibility of the relation module over the given seed."""
    from .gt_module import is_irreducible

    C = _load_relations(relations_path)
    tab = _load_tableau(tableau_path, C.pyramid)
    verdict = is_irreducible(C, tab)
    _emit({"command": "irreducible", "irreducible": verdict})
    return EXIT_OK if verdict else EXIT_FALSE


def tensor_check_cmd(weights_path, depth, mode):
    """Probe a tensor product of evaluation modules for extra singular vectors."""
    from .yangian_tensor import (
        EvaluationFactor,
        GlWeight,
        TensorModule,
        integral_condition,
        is_generic,
        only_top_line,
        require_factor_count,
        singular_dimensions,
    )

    weights, points = _load_weights(weights_path)
    require_factor_count(len(weights))  # before any factor is built or pair compared
    # The conditions are stated at point 0.  A factor of weight w at point a is
    # the factor of weight w - a at 0 times the scalar series u/(u - a), which
    # moves no submodule, so each condition reads w - a.
    shifted = [GlWeight([v - p for v in w.values]) for w, p in zip(weights, points)]
    conditions = {"generic": is_generic(shifted)}
    if mode == "integral":
        if len(weights) != 2:
            raise InputError("integral mode needs exactly two weights")
        conditions["integral"] = integral_condition(*shifted)
    factors = [EvaluationFactor(w, p) for w, p in zip(weights, points)]
    dims = singular_dimensions(TensorModule(factors, depth), depth)
    only_top = only_top_line(dims)
    _emit(
        {
            "command": "tensor-check",
            "mode": mode,
            "depth": depth,
            "conditions": conditions,
            "singular_dimensions": {
                ",".join(str(c) for c in off): dim for off, dim in dims.items()
            },
            "only_top_line": only_top,
        }
    )
    return EXIT_OK if only_top else EXIT_FALSE


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors: exit 4 with a JSON report."""

    def error(self, message):
        raise InputError(message)


def _integer(lo=None, hi=None):
    """An argparse type: an int in [lo, hi]; argparse prefixes the option name."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer")
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            bound = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bound}")
        return value

    return parse


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="wpimod",
        description="Exact relation Gelfand-Tsetlin modules and Yangian tensor probes.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, func, inputs=("--relations",)):
        sub = commands.add_parser(
            name, help=func.__doc__, description=func.__doc__, allow_abbrev=False
        )
        sub.set_defaults(func=func)
        for option in inputs:
            sub.add_argument(option, dest=option[2:] + "_path", required=True, metavar="PATH")
        return sub

    def defaulted(sub, option, **kwargs):
        sub.add_argument(option, help="default: %(default)s", **kwargs)

    command("check-admissible", check_admissible_cmd)
    command("reduce", reduce_cmd)
    sub = command("rr-remove", rr_remove_cmd)
    sub.add_argument("--triple", dest="triple_str", required=True,
                     help="extremal triple as k,i,j")
    sub = command("enumerate-basis", enumerate_basis_cmd)
    sub.add_argument("--tableau", dest="tableau_path", metavar="PATH")
    defaulted(sub, "--radius", type=_integer(0), default=2)
    sub = command("verify-relations", verify_relations_cmd)
    sub.add_argument("--tableau", dest="tableau_path", metavar="PATH")
    defaulted(sub, "--radius", type=_integer(0), default=2)
    defaulted(sub, "--budget", type=_integer(1, MAX_BUDGET), default=2)
    defaulted(sub, "--instantiations", type=_integer(1, MAX_INSTANTIATIONS), default=3)
    defaulted(sub, "--seed", type=_integer(), default=1)
    command("irreducible", irreducible_cmd, ("--relations", "--tableau"))
    sub = command("tensor-check", tensor_check_cmd, ("--weights",))
    defaulted(sub, "--depth", type=_integer(0), default=3)
    defaulted(sub, "--mode", choices=("generic", "integral"), default="generic")
    return parser, commands.choices


# Built once: building it costs more than a parse.  `_COMMANDS` maps each
# command name to its subparser, a parser of `_PARSER`.
_PARSER, _COMMANDS = _build_parser()


def _parse(argv: list[str]) -> dict:
    """The arguments of argv as `_PARSER.parse_args` gives them, less "command".

    A command's arguments go straight to its own subparser, which the full
    parse hands them to as well, so its help, usage and error texts are the
    same; only an argv that does not start with a command (none, an unknown
    one, -h or --help) takes the full parse.
    """
    sub = _COMMANDS.get(argv[0]) if argv else None
    args = vars(sub.parse_args(argv[1:]) if sub else _PARSER.parse_args(argv))
    args.pop("command", None)
    return args


def run(argv=None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.pop("func")(**args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (InputError, ValueError) as exc:
        _emit({"error": str(exc)})
        return EXIT_INPUT


def console_main():
    sys.exit(run())


if __name__ == "__main__":
    console_main()
