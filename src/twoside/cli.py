"""Command-line interface.

Three command groups:

- ``pvalue``: two-sided p-values for a point under a distribution.
- ``test``: variance, F, binomial, and Fisher exact tests.
- ``analyze``: UMPU weights, bias reports, weight/p-value tables, and
  figure-data series.

Output is a JSON envelope (schema ``twoside/1``) echoing the inputs,
or CSV for tabular payloads via ``--format csv`` (figure data is always
CSV). Numbers are serialized to 10 significant digits; byte output is
deterministic for identical inputs. Exit codes: 0 success, 2 usage error,
3 domain error (invalid parameter values, degenerate inputs), 4 numerical
failure (an ``ArithmeticError``, e.g. a special function that did not
converge).

A command line that is a leaf command's words (``pvalue``, ``test f``, ...)
followed by that leaf's flags, each its own token with its value as the next,
is read straight from the one command table, ``_COMMANDS``, into the namespace
argparse would give. Anything else (help, a usage error, or a spelling that
only argparse takes, such as ``--x=3`` or ``--``) goes to the argparse tree
built from that table, and argparse is imported only then; so the messages and
exit codes are argparse's.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Sequence

from . import pvalue
from ._record import Record
from .dist import (
    Binomial,
    ChiSquare,
    Distribution,
    FRatio,
    Hypergeometric,
    NoncentralHypergeometric,
    Triangular,
    TruncatedNormal,
    Uniform,
)

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "UsageError"]

SCHEMA_VERSION = "twoside/1"


class UsageError(Exception):
    """Malformed command line; maps to exit code 2."""


_DIST_FAMILIES = {"chisq": ChiSquare, "f": FRatio, "unif": Uniform, "tri": Triangular,
                  "truncnorm": TruncatedNormal, "binom": Binomial, "hyper": Hypergeometric,
                  "nchyper": NoncentralHypergeometric}

# family name -> {parameter name: "int" or "float"}: the arguments of the
# law's constructor, in order, with the types its fields declare
_DIST_PARAMS = {family: {name: kind for name, kind in law.__init__.__annotations__.items()
                         if name != "return"}
                for family, law in _DIST_FAMILIES.items()}

_DIST_HELP = ("distribution as family:p1,p2,... — one of "
              + "; ".join(f"{family}:{','.join(params)}"
                          for family, params in _DIST_PARAMS.items()))

_METHOD_HELP = ("comma-separated p-value methods: doubled, conditional, "
                "conditional_modified, min_likelihood (alias minlik), "
                "weighted:WL, or all (default all)")

# each method by its name but weighted, which is named with its weight (weighted:WL)
_METHOD_ALIASES = {**{m: m for m in pvalue.METHODS if m != pvalue.WEIGHTED},
                   "conditional-modified": pvalue.CONDITIONAL_MODIFIED,
                   "minlik": pvalue.MIN_LIKELIHOOD}

def _parse_number(token: str, kind: str, context: str) -> float | int:
    token = token.strip()
    try:
        if kind == "int":
            return int(token)
        return float(token)
    except ValueError:
        raise UsageError(f"{context}: expected {'an integer' if kind == 'int' else 'a number'}, "
                         f"got {token!r}") from None


def parse_dist(spec: str) -> Distribution:
    """Construct a distribution from the family:p1,p2,... mini-grammar."""
    family, sep, rest = spec.partition(":")
    if family not in _DIST_FAMILIES:
        supported = ", ".join(sorted(_DIST_FAMILIES))
        raise UsageError(f"unknown distribution family {family!r}; supported: {supported}")
    params = _DIST_PARAMS[family]
    tokens = rest.split(",") if sep and rest else []
    if len(tokens) != len(params):
        raise UsageError(f"{family} takes {len(params)} parameter(s) "
                         f"({','.join(params)}), got {len(tokens)}")
    return _DIST_FAMILIES[family](*[_parse_number(tok, kind, f"{family} parameter {name}")
                                    for tok, (name, kind) in zip(tokens, params.items())])


def parse_anchor(text: str) -> pvalue.TailAnchor:
    if text in (pvalue.MEAN, pvalue.MODE, pvalue.MEDIAN):
        return text
    if text.startswith("value:"):
        return float(_parse_number(text[len("value:"):], "float", "anchor value"))
    raise UsageError(f"bad anchor {text!r}; expected mean, mode, median, or value:V")


def parse_methods(text: str, is_discrete: bool) -> list[tuple[str, pvalue.Weights | None]]:
    """Expand a method list into (method, weights) pairs."""
    out: list[tuple[str, pvalue.Weights | None]] = []
    for token in text.split(","):
        token = token.strip()
        if token == "all":
            out.extend((name, None) for name in pvalue.default_methods(is_discrete))
        elif token.startswith("weighted:"):
            w_left = float(_parse_number(token[len("weighted:"):], "float", "weighted weight"))
            if not (0.0 < w_left < 1.0):
                raise UsageError(f"weighted:WL needs WL in (0, 1), got {w_left!r}")
            out.append((pvalue.WEIGHTED, pvalue.Weights(w_left, 1.0 - w_left)))
        elif token in _METHOD_ALIASES:
            out.append((_METHOD_ALIASES[token], None))
        else:
            raise UsageError(f"unknown p-value method {token!r}")
    return out


def _parse_list(text: str, kind: str, context: str) -> list[float | int]:
    return [_parse_number(tok, kind, context) for tok in text.split(",")]


def _json(value, indent: str = "\n") -> str:
    """Render ``value`` as JSON with every float rounded to 10 significant digits.

    The bytes are those of ``json.dumps(value, indent=2, allow_nan=False)``
    on a copy with the floats rounded, written in one pass: ``indent`` is the
    newline and indentation of the current level. A record
    (``twoside._record.Record``: a law or a result type) becomes the object
    of its fields in declaration order, which ``vars`` gives. A finite float
    whose rounding overflows (from 1.7976931345e308 up) is written unrounded;
    NaN and infinities raise the ``ValueError`` that ``json`` raises.

    A float is written as ``repr(float(text))`` for text =
    ``f"{value:.10g}"``, mostly as text itself. Where the decimal exponent
    of text is from -307 to 307 the rounded value is a normal double, whose
    rounding interval holds only one decimal of at most 15 significant
    digits, so text has the digits of its shortest ``repr``. Both formats
    are fixed for exponents -4 to 9 (``repr`` adds ``.0`` to an integral
    value; zero is ``0.0``) and scientific, with the same exponent form,
    below -4 and from 16 on. Other text (exponents 10 to 15, where ``repr``
    is fixed; -308 and below, where the subnormals are; 308, whose rounding
    may overflow; NaN and infinities) takes the round trip.
    """
    if isinstance(value, float):
        text = f"{value:.10g}"
        if "e" in text:
            exponent = int(text.partition("e")[2])
            if -308 < exponent < -4 or 15 < exponent < 308:
                return text
        elif math.isfinite(value):
            return text if "." in text else text + ".0"
        rounded = float(text)
        if math.isfinite(rounded):
            return repr(rounded)
        if math.isfinite(value):
            return repr(value)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Record):
        value = vars(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner
                + ("," + inner).join([encode_basestring_ascii(k) + ": " + _json(v, inner)
                                      for k, v in value.items()])
                + indent + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    # floats to 10 significant digits; no cell holds a comma, a quote or a newline
    lines = [",".join(header)]
    lines += [",".join([f"{v:.10g}" if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}") from None


def _cmd_pvalue(args: SimpleNamespace | argparse.Namespace) -> tuple[dict, object]:
    d = parse_dist(args.dist)
    anchor = parse_anchor(args.anchor)
    methods = parse_methods(args.method, d.is_discrete)
    if not math.isfinite(args.x):
        raise ValueError(f"x must be finite, got {args.x!r}")
    truncate = not args.no_truncate
    anchor_value = pvalue.resolve_anchor(d, anchor)
    weights = pvalue.tail_weights(d, anchor_value)
    p_values = {}
    for method, w in methods:
        p_values[method] = pvalue.p_value(d, args.x, method, anchor_value=anchor_value,
                                          weights=w, truncate=truncate)
    inputs = {
        "dist": args.dist,
        "x": args.x,
        "anchor": args.anchor,
        "method": args.method,
        "truncate": truncate,
    }
    results = {
        "anchor": anchor_value,
        "weights": weights,
        "p_values": p_values,
    }
    return inputs, results


def _cmd_test(args: SimpleNamespace | argparse.Namespace) -> tuple[dict, object]:
    from . import stattests

    kind = args.command[1]
    anchor = parse_anchor(args.anchor)
    methods = None
    if args.method is not None:
        pairs = parse_methods(args.method, kind in ("binomial", "fisher"))
        if any(w is not None for _, w in pairs):
            raise UsageError("weighted:WL is supported by the pvalue command only")
        methods = [method for method, _ in pairs]
    if kind == "variance":
        if args.data is not None:
            if args.s2 is not None or args.n is not None:
                raise UsageError("pass either --data or --s2/--n, not both")
            sample = _read_sample(args.data)
            report = stattests.variance_test_from_sample(sample, args.sigma0sq,
                                                         anchor=anchor, methods=methods)
            inputs = {"data": args.data, "n": len(sample), "sigma0sq": args.sigma0sq}
        else:
            if args.s2 is None or args.n is None:
                raise UsageError("variance test needs --s2 and --n (or --data)")
            report = stattests.variance_test(args.s2, args.n, args.sigma0sq,
                                             anchor=anchor, methods=methods)
            inputs = {"s2": args.s2, "n": args.n, "sigma0sq": args.sigma0sq}
    elif kind == "f":
        report = stattests.f_test(args.s1sq, args.n1, args.s2sq, args.n2,
                                  anchor=anchor, methods=methods)
        inputs = {"s1sq": args.s1sq, "n1": args.n1, "s2sq": args.s2sq, "n2": args.n2}
    elif kind == "binomial":
        report = stattests.binomial_test(args.x, args.n, args.p0,
                                         anchor=anchor, methods=methods)
        inputs = {"x": args.x, "n": args.n, "p0": args.p0}
    else:
        cells = _parse_list(args.table, "int", "table cell")
        if len(cells) != 4:
            raise UsageError(f"--table needs 4 cell counts, got {len(cells)}")
        table = stattests.ContingencyTable(*cells)
        report = stattests.fisher_exact(table, anchor=anchor, methods=methods)
        inputs = {"table": cells}
    inputs["anchor"] = args.anchor
    if args.method is not None:
        inputs["method"] = args.method
    return inputs, report


def _read_sample(path: str) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise UsageError(f"cannot read data file: {exc}") from None
    sample = []
    for i, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            sample.append(float(line))
        except ValueError:
            raise UsageError(f"{path}:{i}: not a number: {line!r}") from None
    if len(sample) < 2:
        raise UsageError(f"{path}: need at least two observations, got {len(sample)}")
    return sample


def _table_results(rows: list[dict], fmt: str) -> dict | str:
    if fmt == "csv":
        return _render_csv(rows[0].keys(), [r.values() for r in rows])
    return {"rows": rows}


def _cmd_analyze(args: SimpleNamespace | argparse.Namespace) -> tuple[dict, object]:
    from . import analysis

    kind = args.command[1]
    if kind == "umpu":
        d = parse_dist(args.dist)
        w_star, region = analysis.umpu_weights(d, args.alpha)
        results = {
            "w_left": w_star,
            "c_left": region.c_left,
            "c_right": region.c_right,
            "alpha_left": w_star * args.alpha,
            "alpha_right": (1.0 - w_star) * args.alpha,
            "anchor": region.anchor,
        }
        return {"dist": args.dist, "alpha": args.alpha}, results

    if kind == "bias":
        d = parse_dist(args.dist)
        method = {**_METHOD_ALIASES, "umpu": analysis.UMPU}.get(args.method)
        if method not in analysis.BIAS_METHODS:
            raise UsageError(f"unknown bias method {args.method!r}; expected one of "
                             + ", ".join(analysis.BIAS_METHODS))
        report = analysis.bias(d, method, args.alpha, anchor=parse_anchor(args.anchor))
        inputs = {"dist": args.dist, "method": args.method, "alpha": args.alpha,
                  "anchor": args.anchor}
        return inputs, report

    if kind == "table1":
        # an empty --n or --p is a malformed list, not the default grid
        ns = list(analysis.TABLE1_NS) if args.n is None else _parse_list(args.n, "int", "table1 n")
        ps = list(analysis.TABLE1_PS) if args.p is None else _parse_list(args.p, "float", "table1 p")
        rows = analysis.binomial_weight_table(ns, ps)
        return {"n": ns, "p": ps}, _table_results(rows, args.format)

    if kind == "table2":
        margins = _parse_list(args.margins, "int", "margins")
        if len(margins) != 3:
            raise UsageError(f"--margins needs row1,col1,total, got {len(margins)} values")
        rows = analysis.fisher_pvalue_table(*margins)
        return {"margins": margins}, _table_results(rows, args.format)

    header, rows = analysis.figure_data(args.which, args.resolution)
    return {"which": args.which, "resolution": args.resolution}, _render_csv(header, rows)


_ANCHOR = dict(default="mean", help="tail anchor: mean, mode, median, or value:V (default mean)")
_TEST_ARGUMENTS = {"--anchor": _ANCHOR, "--method": dict(help=_METHOD_HELP)}
_FORMAT = dict(default="json", choices=("json", "csv"), help="output format (default json)")
_OUT = dict(help="write output to a file instead of stdout")

# leaf command words -> (help, handler, {flag: add_argument keywords}), every leaf's flags
# starting with --out. A handler returns the echoed inputs and either the JSON results (a dict or a
# result record) or finished CSV text, for the command named by the words joined with dots
# (test.f).
_COMMANDS = {words: (help_text, handler, {"--out": _OUT, **flags})
             for words, (help_text, handler, flags) in {
    ("pvalue",): ("two-sided p-values for one observation", _cmd_pvalue, {
        "--dist": dict(required=True, help=_DIST_HELP),
        "--x": dict(required=True, type=float, help="observed value"),
        "--anchor": _ANCHOR,
        "--method": dict(default="all", help=_METHOD_HELP),
        "--no-truncate": dict(action="store_true", default=False,
                              help="report the doubled p-value without capping at 1"),
    }),
    ("test", "variance"): ("one-sample variance test", _cmd_test, {
        "--s2": dict(type=float, help="sample variance"),
        "--n": dict(type=int, help="sample size"),
        "--data": dict(help="file with one observation per line (alternative to --s2/--n)"),
        "--sigma0sq": dict(required=True, type=float, help="null variance"),
        **_TEST_ARGUMENTS,
    }),
    ("test", "f"): ("two-sample variance-ratio test", _cmd_test, {
        "--s1sq": dict(required=True, type=float, help="first sample variance"),
        "--n1": dict(required=True, type=int, help="first sample size"),
        "--s2sq": dict(required=True, type=float, help="second sample variance"),
        "--n2": dict(required=True, type=int, help="second sample size"),
        **_TEST_ARGUMENTS,
    }),
    ("test", "binomial"): ("exact binomial test", _cmd_test, {
        "--x": dict(required=True, type=int, help="number of successes"),
        "--n": dict(required=True, type=int, help="number of trials"),
        "--p0": dict(required=True, type=float, help="null success probability"),
        **_TEST_ARGUMENTS,
    }),
    ("test", "fisher"): ("Fisher's exact test for a 2x2 table", _cmd_test, {
        "--table": dict(required=True, help="cell counts a,b,c,d (row-major: n11,n12,n21,n22)"),
        **_TEST_ARGUMENTS,
    }),
    ("analyze", "umpu"): ("unbiased-test weights and critical region", _cmd_analyze, {
        "--dist": dict(required=True, help=_DIST_HELP),
        "--alpha": dict(required=True, type=float, help="test level"),
    }),
    ("analyze", "bias"): ("minimum power minus level over alternatives", _cmd_analyze, {
        "--dist": dict(required=True, help=_DIST_HELP),
        "--method": dict(required=True, help="doubled, conditional, umpu, or min_likelihood"),
        "--alpha": dict(required=True, type=float, help="test level"),
        "--anchor": _ANCHOR,
    }),
    ("analyze", "table1"): ("binomial tail-weight table", _cmd_analyze, {
        "--n": dict(help="comma-separated sample sizes"),
        "--p": dict(help="comma-separated success probabilities"),
        "--format": _FORMAT,
    }),
    ("analyze", "table2"): ("hypergeometric p-value table", _cmd_analyze, {
        "--margins": dict(required=True, help="row1,col1,total of the margin family"),
        "--format": _FORMAT,
    }),
    ("analyze", "figure"): (
        "figure-data series (CSV). fig1: rho, power of the four 5%%-level chi-square(5) "
        "tests. fig2: panel, n, bias of doubled/conditional tests (one_sample n=3..50; "
        "two_sample n1=6, n2=4..50). fig3: panel, x, three p-value curves for chisq5 "
        "(x in [0,20]) and truncnorm05 (x in [-0.5,4]); the doubled series is untruncated. "
        "fig4: panel, x, four p-value curves over the support of binom10 and binom11 (p=0.2).",
        _cmd_analyze, {
            "--which": dict(required=True, choices=("fig1", "fig2", "fig3", "fig4"),
                            help="which figure's data to emit"),
            "--resolution": dict(default=512, type=int, help="grid resolution for continuous "
                                                             "axes, 4 to 100000 (default 512)"),
        }),
}.items()}


# a negative number, which is a value and not a flag: argparse's own test only
# knows -1 and -1.5, so it would read ``--x -4.4e-05`` as a flag with no value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _read(words: tuple[str, ...], tokens: list[str]) -> SimpleNamespace | None:
    """The namespace that the tree gives for a leaf's ``tokens``, or None unless
    they are that leaf's flags, each its own token, each value the next token, not
    flag-like, taken by the flag's ``type`` and in its ``choices``, and every
    required flag given. A repeated flag keeps its last value, as in argparse. An
    unset flag takes its table default (so a ``store_true`` flag states False); no
    table default is a string with a ``type``, so argparse converts none of them."""
    flags = _COMMANDS[words][2]
    values = {}
    tokens = iter(tokens)
    for flag in tokens:
        keywords = flags.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            value = True
        else:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[flag[2:].replace("-", "_")] = value
    for flag, keywords in flags.items():
        dest = flag[2:].replace("-", "_")
        if dest not in values:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default")
    return SimpleNamespace(command=words, **values)


@functools.cache
def _tree() -> argparse.ArgumentParser:
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        """argparse that reads every negative number as a value, not as a flag, and
        takes no abbreviated flag: ``--dis`` is not ``--dist``, so a new flag cannot
        make an old command line ambiguous. Subparsers inherit the class."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, allow_abbrev=False, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

    # built once and reused: parse_args returns a fresh Namespace each time, and
    # argparse looks up sys.stdout/sys.stderr and the terminal width only when it prints
    parser = ArgumentParser(prog="twoside", description="Two-sided p-values, tests, and "
                            "power/bias analysis for asymmetric null distributions.")
    # the subcommands of each group, by the group's words; () is the top level
    subcommands = {(): parser.add_subparsers(required=True, metavar="command")}
    groups = {"test": ("statistical tests", "kind"),  # help, metavar of the leaves
              "analyze": ("power, bias, and table/figure data", "what")}
    for words, (help_text, _, flags) in _COMMANDS.items():
        group = words[:-1]
        if group not in subcommands:
            group_help, metavar = groups[words[0]]
            subcommands[group] = subcommands[()].add_parser(
                words[0], help=group_help).add_subparsers(required=True, metavar=metavar)
        leaf = subcommands[group].add_parser(words[-1], help=help_text)
        for flag, keywords in flags.items():
            leaf.add_argument(flag, **keywords)
        leaf.set_defaults(command=words)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """``argv``'s namespace as the tree parses it: read from the table when ``_read``
    takes it, else parsed by the tree, which prints help and usage errors and raises
    ``SystemExit``."""
    for words in (tuple(argv[:1]), tuple(argv[:2])):
        if words in _COMMANDS:
            args = _read(words, argv[len(words):])
            if args is not None:
                return args
    return _tree().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, results = _COMMANDS[args.command][1](args)
        if not isinstance(results, str):
            # "warnings" is part of schema twoside/1; no command warns
            results = _json({"schema_version": SCHEMA_VERSION, "command": ".".join(args.command),
                             "inputs": inputs, "results": results, "warnings": []}) + "\n"
        _emit(results, args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
