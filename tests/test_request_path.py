"""The request path against its references: ``cli.parse`` against the
argparse parser it replaced, and ``cli.canonical_json`` against
``json.dumps``."""

import argparse
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnlab import cli
from glnlab.errors import InvalidConfig
from glnlab.rings import DEFAULT_GROUP_CAP
from test_cli import INVALID_CONFIG_ARGVS
from test_golden_reports import COMMANDS

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidConfig(message)


def build_parser():
    """The argparse parser that ``cli.parse`` replaced, as it stood."""
    p = _Parser(prog="glnlab", description=cli.__doc__)
    p.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP,
                   help="work units any one enumeration may take (>= 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property checks")
    p.add_argument("--json-out", help="also write the report to this path")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cli.cmd_roots)

    sp = sub.add_parser("cartan")
    sp.add_argument("--n", type=int)
    sp.add_argument("--preset", choices=["g2"])
    sp.set_defaults(func=cli.cmd_cartan)

    sp = sub.add_parser("lang")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.set_defaults(func=cli.cmd_lang)

    sp = sub.add_parser("h1")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--level", type=int, default=1)
    sp.set_defaults(func=cli.cmd_h1)

    sp = sub.add_parser("dm-check")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cli.cmd_dm_check)

    sp = sub.add_parser("building")
    sp.add_argument("action", choices=["simplices", "iwasawa", "ub-audit",
                                       "self-norm"])
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--precision", type=int, default=6)
    sp.set_defaults(func=cli.cmd_building)

    sp = sub.add_parser("satake")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lam", required=True,
                    help="comma-separated weakly decreasing vector")
    sp.add_argument("--enable-gl3", action="store_true",
                    help="accepted and ignored: rank 3 needs no flag")
    sp.set_defaults(func=cli.cmd_satake)

    sp = sub.add_parser("hecke")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.set_defaults(func=cli.cmd_hecke)

    sp = sub.add_parser("lfactor")
    sp.add_argument("mode", nargs="?", default="plain",
                    choices=["plain", "rankin", "bc"])
    sp.add_argument("--rep", default="standard")
    sp.add_argument("--params")
    sp.add_argument("--left")
    sp.add_argument("--right")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(func=cli.cmd_lfactor)

    sp = sub.add_parser("suite")
    sp.add_argument("name", choices=["paper-audit", "full"])
    sp.set_defaults(func=cli.cmd_suite)

    return p


ORACLE = build_parser()


def outcome(argv):
    """(argparse's reading, parse's): "help", "refused" or the dict of
    the namespace's attributes."""
    results = []
    for read in (ORACLE.parse_args, cli.parse):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                args = read(list(argv))
            except InvalidConfig:
                results.append("refused")
                continue
            except SystemExit as exc:  # argparse's help
                assert exc.code == 0
                args = None
        results.append("help" if args is None else vars(args))
    return results


def assert_parity(argv):
    want, got = outcome(argv)
    if "--" in argv:  # refused, whatever argparse made of it
        assert got == "refused", argv
    else:
        assert got == want, argv


# ---------------------------------------------------------------------------
# parser parity

# (option, value draws) of each section; a positional is an option None
GLOBAL = [("--cap", ["5000", "1", "0", "-2"]), ("--seed", ["0", "7", "-1"]),
          ("--json-out", ["r.json", "a b", "-"])]
INTS = ["1", "2", "3"] * 4 + ["0", "-1", "10", " 4", "1_0", "x", "1.5",
                              "-1.5", ""]
SECTIONS = {
    "roots": [("--n", INTS)],
    "cartan": [("--n", INTS), ("--preset", ["g2", "a2", ""])],
    "lang": [("--p", INTS), ("--d", INTS), ("--s", INTS)],
    "h1": [("--p", INTS), ("--d", INTS), ("--s", INTS), ("--level", INTS)],
    "dm-check": [("--s", INTS), ("--q", INTS), ("--n", INTS)],
    "building": [(None, ["simplices", "iwasawa", "ub-audit", "self-norm",
                         "bogus"]),
                 ("--n", INTS), ("--p", INTS), ("--count", INTS),
                 ("--precision", INTS)],
    "satake": [("--n", INTS), ("--p", INTS),
               ("--lam", ["1,0", "2,-1", "-1,0", "-1", "-.5", ""]),
               ("--enable-gl3", None)],
    "hecke": [("--n", INTS), ("--p", INTS), ("--left", ["1,0", "-1,-1"]),
              ("--right", ["0,0", "2,-1", "x"])],
    "lfactor": [(None, ["plain", "rankin", "bc", "other"]),
                ("--rep", ["standard", "dual", "sym(2)"]),
                ("--params", ["a", "a,b", "-1"]), ("--left", ["a"]),
                ("--right", ["b", "-2"]), ("--d", INTS), ("--q", INTS)],
    "suite": [(None, ["paper-audit", "full", "nonsense"])],
}
ODD_TOKENS = ["--bogus", "--bogus=1", "-x", "-1,0", "-5", "-.5", "extra", "-",
              "", "x y", "--cap", "--seed=3", "--json-out", "-h", "--help",
              "--he", "-hx", "--help=1", "--enable-gl3=x", "--enable-gl3=",
              "--", "--=1", "--r", "--re", "--ri=b", "--l", "--p", "--pr",
              "--c", "--s", "--le=1,0", "--n=", "--n=-1"]


def section_tokens(data, pairs):
    """Tokens for most of the section's arguments, in random order, each
    flag as "--x v" or "--x=v", and one of them sometimes repeated."""
    chosen = [pair for pair in data.draw(st.permutations(pairs))
              if data.draw(st.integers(0, 5))]
    chosen += data.draw(st.lists(st.sampled_from(pairs), max_size=1))
    tokens = []
    for option, values in chosen:
        if values is None:
            tokens.append(option)
            continue
        value = data.draw(st.sampled_from(values))
        if option is None:
            tokens.append(value)
        elif data.draw(st.booleans()):
            tokens.append(f"{option}={value}")
        else:
            tokens += [option, value]
    return tokens


def mutate(data, tokens):
    """One of: drop a token (a trailing value too), cut a flag to a
    prefix, or insert an odd token, a subcommand flag among the global
    ones or a global flag after the subcommand."""
    if not tokens:
        return tokens
    i = data.draw(st.integers(0, len(tokens)))
    how = data.draw(st.sampled_from(["drop", "drop-last", "prefix", "prefix",
                                     "insert", "insert", "insert"]))
    if how == "drop":
        return tokens[:i] + tokens[i + 1:]
    if how == "drop-last":
        return tokens[:-1]
    if how == "prefix":
        flags = [j for j, t in enumerate(tokens) if t.startswith("--")]
        if not flags:
            return tokens
        j = data.draw(st.sampled_from(flags))
        name, eq, value = tokens[j].partition("=")
        cut = data.draw(st.integers(3, max(3, len(name))))
        return tokens[:j] + [name[:cut] + eq + value] + tokens[j + 1:]
    return tokens[:i] + [data.draw(st.sampled_from(ODD_TOKENS))] + tokens[i:]


class TestParserParity:
    """On every argv, parse and the argparse parser both refuse it, both
    ask for help or give equal namespaces; parse refuses every ``--``."""

    @given(command=st.sampled_from(sorted(SECTIONS)), data=st.data())
    @settings(max_examples=1500, derandomize=True, deadline=None)
    def test_grammar_fuzz(self, command, data):
        argv = section_tokens(data, GLOBAL) + [command] + section_tokens(
            data, SECTIONS[command])
        for _ in range(data.draw(st.integers(0, 3))):
            argv = mutate(data, argv)
        assert_parity(argv)

    @pytest.mark.parametrize("argv", [
        *COMMANDS.values(), *INVALID_CONFIG_ARGVS,
        # a positional after the flags; a unique and an ambiguous prefix
        "lfactor --q 3 rankin --left a --right b", "building --n 2 simplices",
        "--s 3 roots --n 2", "building iwasawa --pr 9 --c=5",
        "lfactor --q 3 --re dual --params a",
        "lfactor --q 3 --r dual --params a", "--=1 roots --n 2",
        # - leads a value only as a negative number
        "satake --n 2 --p 2 --lam -1,0", "--seed -3 roots --n 2",
        "--seed -.5 roots --n 2", "satake --n 2 --p 2 --lam -- -1,0",
        # the last of a repeated flag wins; global flags go first
        "roots --n 2 --n 3", "--cap 1 --cap 2 roots --n 2",
        "roots --n 2 --seed 1",
        # a switch and help take no value
        "satake --n 2 --p 2 --lam=1,0 --enable-gl3=x",
        "satake --n 2 --p 2 --lam=1,0 --enable-gl3=", "roots --n 2 --help=1",
        "roots --n 2 -hx",
        # help against errors found before it, at once or at the end
        "-h", "hecke -h", "--help roots --n x", "roots --n x --help",
        "lfactor --help --r x", "suite full --help --=1", "roots --bogus -h",
        "roots", ""])
    def test_fixed_argvs(self, argv):
        assert_parity(argv.split())

    def test_workload_argvs(self):
        for workload in workloads.POOLS:
            for argv, _, _ in workloads.stream(workload, 1, 10**6):
                assert_parity(argv)


# ---------------------------------------------------------------------------
# the JSON writer

TEXT = st.text(st.characters(max_codepoint=0x1F600), max_size=8) | \
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é中", "\U0001f600",
                     "</script>", ""])
SCALARS = st.none() | st.booleans() | TEXT | st.integers() | st.sampled_from(
    [-10**40, 10**40, 2**63, -1, 0])
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.tuples(inner, inner)
                      | st.dictionaries(TEXT, inner, max_size=4),
                      max_leaves=30)


class TestCanonicalJson:
    @given(value=VALUES)
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_equals_json_dumps(self, value):
        assert cli.canonical_json(value) == json.dumps(
            value, sort_keys=True, indent=2, ensure_ascii=True) + "\n"

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), {"a": [Fraction(1, 2)]}, {1: "a"}, {("a",): 1},
        {"a": 1.5}, {1, 2}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli.canonical_json(value)
