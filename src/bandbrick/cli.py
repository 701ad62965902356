"""Command-line interface: one subcommand per library operation.

Words arrive as lowercase letters (a maps to 1), digit strings, or
comma-separated integers; output repeats the input encoding.  g-vectors
are comma-separated integers.  ``--json`` (or BANDBRICK_FORMAT=json)
switches every subcommand to machine output, errors included: one line
{"error": class, "message": text, "exit": code} on stderr.  Exit codes:
0 success, 1 domain error, 2 usage error, 141 (128 + SIGPIPE) when
stdout closes before the result is written.
"""

from __future__ import annotations

import argparse
import functools
import operator
import os
import re
import sys
import time
from fractions import Fraction

# render and json load only with the commands that use them.  The layers
# the other handlers call load here, with the CLI: perfbench's tracer looks
# each traced layer up in sys.modules when it installs its wrappers
from . import dyck, forms, gentle, words
from .errors import (
    DomainError, InternalInconsistency, InvalidWalk, ListingTooLarge, QuiverTooLarge
)


# band module prints every arrow of the quiver as a dense matrix, so its
# cost grows with n and with the products of adjacent dimensions.  The
# pins in tests/test_cli.py, band module of 2 followed by 450 threes
# (1,623,602 entries) as text and as JSON, have their figures in README's
# bounds table, and the two bounds together theirs in README's paragraph
# on band module
MAX_LISTED_VERTICES = 100_001
MAX_LISTED_ENTRIES = 2_000_000


class UsageError(Exception):
    """Bad flags or unparseable input; maps to exit code 2."""


# Lets tokens like "-3,-1,3" and "-2/3" pass as values instead of flags.
_NEG_CSV = re.compile(r"^-[0-9]+(?:/[0-9]+|(?:,-?[0-9]+)*)$")


def _json_format(asked: bool) -> bool:
    # --json on the subcommand, or BANDBRICK_FORMAT=json
    return asked or os.environ.get("BANDBRICK_FORMAT", "").lower() == "json"


def _report(asked: bool, name: str, message: str, code: int, human: str) -> int:
    # one error line on stderr, as JSON when the format asks for it
    if _json_format(asked):
        import json

        human = json.dumps({"error": name, "message": message, "exit": code})
    print(human, file=sys.stderr)
    return code


class _HelpFormatter(argparse.HelpFormatter):
    # argparse makes a formatter for every argument it adds, and the stock
    # one reads the terminal width when made, which imports shutil; this
    # one reads it only when help or usage text is formatted, and sets the
    # width and the help position from it as the stock one does
    def __init__(self, prog, indent_increment=2, max_help_position=24):
        # no text is laid out before format_help, so any width serves here
        super().__init__(prog, indent_increment, max_help_position, width=80)
        self._asked_help_position = max_help_position

    def format_help(self):
        import shutil

        self._width = shutil.get_terminal_size().columns - 2
        self._max_help_position = min(
            self._asked_help_position, max(self._width - 20, self._indent_increment * 2)
        )
        return super().format_help()


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEG_CSV
        self._json_asked = False

    def add_subparsers(self, **kwargs):
        # argparse names the subcommands after a usage line it formats, which
        # with no positional argument before them is this parser's prog
        if not self._get_positional_actions():
            kwargs.setdefault("prog", self.prog)
        return super().add_subparsers(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's parser looks for --json, or a prefix of it, among its
        # own tokens before reading them, so that its errors, and tokens left
        # unrecognized, answer in JSON too.  The parsers above it have no
        # --json and see only BANDBRICK_FORMAT
        if args is not None and "--json" in self._option_string_actions:
            own = args[: args.index("--")] if "--" in args else args
            self._json_asked = any(len(a) > 2 and "--json".startswith(a) for a in own)
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._json_asked:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        if not _json_format(self._json_asked):
            super().error(message)  # the usage and the message as text, exit 2
        sys.exit(_report(True, "UsageError", message, 2, message))


_ALPHA = re.compile(r"^[a-z]+$")
_DIGITS = re.compile(r"^[0-9]+$")
# numbers are ASCII: \d, int(), float() and Fraction() would also read other
# scripts' digits
_CSV = re.compile(r"^-?[0-9]+(?:,-?[0-9]+)*$")
_INT = re.compile(r"^-?[0-9]+$")
_SCALAR = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def _parse_ints(text: str) -> tuple[int, ...]:
    # text matches _CSV, so int() fails only past Python's int-string limit
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(
            f"a number has more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _parse_word(text: str) -> tuple[tuple[int, ...], str]:
    if _ALPHA.fullmatch(text):
        return tuple(ord(c) - ord("a") + 1 for c in text), "alpha"
    if _DIGITS.fullmatch(text):
        if "0" in text:
            raise UsageError("digit-string words use digits 1-9")
        return tuple(int(c) for c in text), "digits"
    if _CSV.fullmatch(text):
        vals = _parse_ints(text)
        if any(v < 1 for v in vals):
            raise UsageError("word letters must be positive integers")
        return vals, "csv"
    raise UsageError(
        f"cannot read word {text!r}: use a-z, digits 1-9, or comma-separated integers"
    )


def _format_word(word: tuple[int, ...], style: str) -> str:
    if style == "alpha":
        return "".join(chr(v + ord("a") - 1) for v in word)
    if style == "digits":
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def _infer_style(word: tuple[int, ...]) -> str:
    top = max(word, default=1)
    if top <= 9:
        return "digits"
    if top <= 26:
        return "alpha"
    return "csv"


def _parse_gvector(text: str) -> tuple[int, ...]:
    if not _CSV.fullmatch(text):
        raise UsageError(f"cannot read g-vector {text!r}: use comma-separated integers")
    return _parse_ints(text)


def _parse_lambda(text: str) -> Fraction:
    # not Fraction(text), which reads exponents such as 1e10000000 at any size
    if _SCALAR.fullmatch(text):
        num, _, den = text.partition("/")
        p, q = _parse_ints(f"{num},{den or 1}")
        if q:
            return Fraction(p, q)
    raise UsageError(f"cannot read scalar {text!r}: use an integer or p/q")


def _parse_band_spec(text: str, n: int | None) -> gentle.Walk:
    # a serialized walk, or else a word; a word is one token, so a spec of
    # several tokens that is not a walk stays an InvalidWalk
    try:
        return gentle.walk_from_str(text)
    except InvalidWalk:
        if len(text.split()) > 1:
            raise
        word, _ = _parse_word(text)
    return gentle.psi(word, n)


def _emit(args: argparse.Namespace, human: str, data) -> None:
    if _json_format(args.json):
        import json

        print(json.dumps(data))
    else:
        print(human)


def _bool_out(args: argparse.Namespace, value: bool) -> int:
    _emit(args, "true" if value else "false", value)
    return 0


def _cmd_bw(args) -> int:
    # bw and bw-inverse: a word to a word, in the input's encoding
    word, style = _parse_word(args.word)
    out = (words.bw_inverse if args.command == "bw-inverse" else words.bw_transform)(word)
    _emit(args, _format_word(out, style), list(out))
    return 0


def _cmd_pcw(args) -> int:
    word, _ = _parse_word(args.word)
    if args.method == "bw":
        return _bool_out(args, words.is_perfectly_clustering(word))
    if args.method == "factors":
        return _bool_out(args, words.is_perfectly_clustering_by_factors(word))
    by_bw = words.is_perfectly_clustering(word)
    if words.is_primitive(word):
        by_factors = words.is_perfectly_clustering_by_factors(word)
        if by_bw != by_factors:
            raise InternalInconsistency(
                f"methods disagree on {word}: bw={by_bw} factors={by_factors}"
            )
    return _bool_out(args, by_bw)


def _multiset_out(args: argparse.Namespace, ms, style: str) -> int:
    human = " ".join(f"({_format_word(w, style)})" for w in ms)
    _emit(args, human, [list(w) for w in ms])
    return 0


def _cmd_phi(args) -> int:
    word, style = _parse_word(args.word)
    return _multiset_out(args, words.phi(word), style)


def _cmd_phi_inverse(args) -> int:
    import json

    try:
        raw = json.loads(args.multiset)
    except ValueError as exc:  # a JSONDecodeError, or a number past the int-string limit
        raise UsageError(f"multiset must be a JSON array of integer arrays: {exc}") from exc
    if not isinstance(raw, list) or not all(
        # type, not isinstance: JSON true is a bool, which is an int subclass
        isinstance(w, list) and all(type(v) is int and v >= 1 for v in w) for w in raw
    ):
        raise UsageError("multiset must be a JSON array of arrays of positive integers")
    ms = tuple(tuple(w) for w in raw)
    out = words.phi_inverse(ms)
    _emit(args, _format_word(out, _infer_style(out)), list(out))
    return 0


def _cmd_gvec_check(args) -> int:
    g = _parse_gvector(args.gvector)
    return _bool_out(args, dyck.validate_gvector(g))


def _cmd_gvec_dyck(args) -> int:
    g = dyck._bounded(_parse_gvector(args.gvector))  # validates and bounds g
    # the runs of g: |a_i| steps labeled i, up when a_i < 0, else down
    steps = "".join(("u" if a < 0 else "d") * abs(a) for a in g)
    labels = [label for label, a in enumerate(g, 1) for _ in range(abs(a))]
    human = f"steps: {steps}\nlabels: {','.join(map(str, labels))}"
    _emit(args, human, {"steps": steps, "labels": labels})
    return 0


def _cmd_gvec_words(args) -> int:
    g = _parse_gvector(args.gvector)
    return _multiset_out(args, dyck.circular_words(g), "csv")


def _cmd_gvec_decompose(args) -> int:
    g = _parse_gvector(args.gvector)
    comps = dyck.component_gvectors(g)
    human = "\n".join(",".join(map(str, c)) for c in comps)
    _emit(args, human, {"gvector": list(g), "components": [list(c) for c in comps]})
    return 0


def _cmd_band_walk(args) -> int:
    word, _ = _parse_word(args.word)
    walk = gentle.psi(word, args.n)
    g = gentle.g_vector_of_band(walk, args.n)
    human = gentle.walk_to_str(walk)
    _emit(args, human, {"walk": human, "gvector": list(g)})
    return 0


def _word_module(args):
    word, _ = _parse_word(args.word)
    return gentle.band_module(gentle.psi(word, args.n), _parse_lambda(args.lam), args.n)


def _cmd_band_module(args) -> int:
    mod = _word_module(args)
    if mod.n > MAX_LISTED_VERTICES:
        raise QuiverTooLarge(
            f"n = {mod.n} exceeds the {MAX_LISTED_VERTICES} vertices a dense listing may have"
        )
    dims = mod.dims
    entries = 2 * sum(map(operator.mul, dims, dims[1:]))
    if entries > MAX_LISTED_ENTRIES:
        raise ListingTooLarge(
            f"{entries} matrix entries exceed the {MAX_LISTED_ENTRIES} a dense listing may have"
        )
    # the header, then each arrow's line as soon as its rows are filled, in
    # the bytes of the text listing or of json.dumps of the data, whose
    # arrows and closing "}}" are cut from the header
    as_json = _json_format(args.json)
    if as_json:
        import json
    print(json.dumps({"n": mod.n, "lambda": str(mod.lam), "dims": list(dims), "arrows": {}})[:-2]
          if as_json else f"n: {mod.n}\nlambda: {mod.lam}\ndims: {','.join(map(str, dims))}\n",
          end="")
    sep = ""
    for (kind, idx), ((rows, cols), mapped) in mod.matrices():
        # every zero of the listing is the one "0" text, so a row costs one
        # pointer per entry; an arrow with no rows, most of them at a large
        # n, is written as [] without a json.dumps call
        listed = [["0"] * cols for _ in range(rows)]
        for (row, col), value in mapped.items():
            listed[row][col] = str(value)
        print(f'{sep}"{kind}{idx}": {json.dumps(listed) if rows else "[]"}' if as_json
              else f"{sep}{kind}{idx}: {listed}", end="")
        sep = ", " if as_json else "\n"
    print("}}" if as_json else "")
    return 0


def _cmd_band_brick(args) -> int:
    return _bool_out(args, gentle.is_brick(_word_module(args)))


def _cmd_band_hom(args) -> int:
    w1 = _parse_band_spec(args.spec1, args.n)
    w2 = _parse_band_spec(args.spec2, args.n)
    lam1 = _parse_lambda(args.lambda1)
    lam2 = None if args.lambda2 is None else _parse_lambda(args.lambda2)
    hom_xy, hom_yx, euler = forms.band_hom(w1, w2, args.n, lam1, lam2)
    data = {
        "hom_xy": hom_xy,
        "hom_yx": hom_yx,
        "ext1_xy": hom_yx,  # ext1_dim(x, y) is hom_dim(y, x)
        "ext1_yx": hom_xy,
        "euler": euler,
    }
    human = "\n".join(f"{k}: {v}" for k, v in data.items())
    _emit(args, human, data)
    return 0


def _cmd_euler(args) -> int:
    x = _parse_gvector(args.gvector1)
    y = _parse_gvector(args.gvector2)
    value = forms.euler_form(x, y)
    _emit(args, str(value), value)
    return 0


def _cmd_fan_brick4(args) -> int:
    g = _parse_gvector(args.gvector)
    return _bool_out(args, forms.is_brick_gvector_n4(g))


def _cmd_fan_maxcompat(args) -> int:
    size, witness = forms.max_compatible_search(args.n, args.box)
    human = f"size: {size}\n" + "\n".join(",".join(map(str, g)) for g in witness)
    _emit(args, human, {"size": size, "max_clique": [list(g) for g in witness]})
    return 0


def _cmd_verify(args) -> int:
    # the suites and their xml parser load only for verify, not at import
    from . import acceptance

    number = args.suite.lstrip("0")
    selected = [
        s for s in acceptance.SUITES if args.suite in ("all", s[1]) or number == str(s[0])
    ]
    if not selected:
        names = ", ".join(acceptance.suite_names())
        raise UsageError(f"unknown suite {args.suite!r}: pick from all, {names}")
    results = []
    for num, name, fn in selected:
        start = time.perf_counter()
        record = fn(args.seed)
        seconds = time.perf_counter() - start
        ok, detail = acceptance.verdict(record)
        results.append({"criterion": num, "name": name, "ok": ok, "detail": detail,
                        "cases": record[1], "failures": len(record[2]), "seconds": seconds})
    all_ok = all(r["ok"] for r in results)
    human = "\n".join(
        f"criterion {r['criterion']} ({r['name']}): "
        f"{'PASS' if r['ok'] else 'FAIL'} ({r['detail']})"
        for r in results
    )
    _emit(args, human, {"ok": all_ok, "results": results})
    return 0 if all_ok else 1


def _cmd_render(args) -> int:
    # the renderer loads only for render, not at import
    from . import render

    g = _parse_gvector(args.gvector)
    svg = render.render_dyck(
        g, unit=args.unit, width=args.width, palette_seed=args.palette_seed
    )
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output!r}: {exc.strerror}") from exc
        _emit(args, args.output, {"path": args.output})
    else:
        sys.stdout.write(svg)
    return 0


def _integer(text: str) -> int:
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"must be an integer: {text!r}")
    return int(text)  # a ValueError past the int-string limit is a usage error too


def _positive(text: str) -> float:
    value = float(text) if text.isascii() else 0.0
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number: {text!r}")
    return value


def _finish(p: argparse.ArgumentParser, fn) -> None:
    # every command takes --json, its last option in help, and runs fn
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bandbrick", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, help_text in [
        ("bw", "Burrows-Wheeler transform of a word"),
        ("bw-inverse", "necklace whose transform is the given word"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("word")
        _finish(p, _cmd_bw)

    p = sub.add_parser("pcw", help="test whether a word is perfectly clustering")
    p.add_argument("word")
    p.add_argument("--method", choices=["bw", "factors", "both"], default="bw")
    _finish(p, _cmd_pcw)

    p = sub.add_parser("phi", help="necklace multiset of a word")
    p.add_argument("word")
    _finish(p, _cmd_phi)

    p = sub.add_parser("phi-inverse", help="word of a necklace multiset (JSON)")
    p.add_argument("multiset")
    _finish(p, _cmd_phi_inverse)

    gvec = sub.add_parser("gvec", help="g-vector operations")
    gsub = gvec.add_subparsers(dest="subcommand", required=True, metavar="op")
    for name, fn, help_text in [
        ("check", _cmd_gvec_check, "validate a g-vector"),
        ("dyck", _cmd_gvec_dyck, "labeled Dyck path of a g-vector"),
        ("words", _cmd_gvec_words, "circular word multiset of a g-vector"),
        ("decompose", _cmd_gvec_decompose, "component g-vectors"),
    ]:
        p = gsub.add_parser(name, help=help_text)
        p.add_argument("gvector")
        _finish(p, fn)

    band = sub.add_parser("band", help="band walks and band modules")
    bsub = band.add_subparsers(dest="subcommand", required=True, metavar="op")
    for name, fn, help_text in [
        ("walk", _cmd_band_walk, "band walk of a word"),
        ("module", _cmd_band_module, "band module matrices of a word"),
        ("brick", _cmd_band_brick, "test whether the band module is a brick"),
    ]:
        p = bsub.add_parser(name, help=help_text)
        p.add_argument("word")
        p.add_argument("--n", type=_integer, help="number of vertices")
        if name != "walk":
            p.add_argument("--lambda", dest="lam", default="1", metavar="P/Q")
        _finish(p, fn)
    p = bsub.add_parser("hom", help="Hom, Ext and Euler data for two bands")
    p.add_argument("spec1", help="word or walk string such as 'a1 b1-'")
    p.add_argument("spec2")
    p.add_argument("--n", type=_integer)
    p.add_argument("--lambda1", default="1", metavar="P/Q")
    p.add_argument("--lambda2", metavar="P/Q")
    _finish(p, _cmd_band_hom)

    p = sub.add_parser("euler", help="Euler form of two g-vectors")
    p.add_argument("gvector1")
    p.add_argument("gvector2")
    _finish(p, _cmd_euler)

    fan = sub.add_parser("fan", help="brick g-vector tests and searches")
    fsub = fan.add_subparsers(dest="subcommand", required=True, metavar="op")
    p = fsub.add_parser("brick4", help="closed-form brick test for four vertices")
    p.add_argument("gvector")
    _finish(p, _cmd_fan_brick4)
    p = fsub.add_parser("maxcompat", help="maximum pairwise-compatible brick set")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--box", type=_integer, required=True)
    _finish(p, _cmd_fan_maxcompat)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("suite", help="suite name, criterion number, or 'all'")
    p.add_argument("--seed", type=_integer, default=0)
    _finish(p, _cmd_verify)

    p = sub.add_parser("render", help="draw the Dyck path model as SVG")
    p.add_argument("gvector")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--unit", type=_positive, default=40.0)
    p.add_argument("--width", type=_positive)
    p.add_argument("--palette-seed", type=_integer, default=0)
    _finish(p, _cmd_render)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import; parse_args keeps no
    # state between calls, so every later call reuses it
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: stdout now writes to the null device, so the
        # flush at exit cannot raise again (Python's signal docs, "Note on
        # SIGPIPE"), and the code is the shell's for a SIGPIPE death
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        return _report(args.json, "UsageError", str(exc), 2, f"usage error: {exc}")
    except DomainError as exc:
        name = type(exc).__name__
        return _report(args.json, name, str(exc), 1, f"error: {name}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
