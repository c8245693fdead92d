"""Every line of ``glnlab`` runs for a claim, or ``ALLOWLIST`` names it
with the reason it stays.

A claim is a request the CLI answers: each golden report (among them
both suites, so every row of the paper audit), the contract argvs of
``tests/test_cli.py::TestExitCodes``, every ``glnlab ...`` line of the
README's ``sh`` blocks, sent through the console entry point, and the
cheap requests of ``SHAPES``.  One subprocess, ``tests/claim_trace.py``,
runs them all under ``sys.settrace``, installed before ``glnlab`` is
imported, and returns the lines of ``src/glnlab`` they execute.  A
finding is

- a function or method that no claim enters;
- a run of ``BLOCK`` or more consecutive executable lines of an entered
  function that no claim executes;
- a public module-level class or assignment whose name no other line of
  ``src/glnlab`` reads (one ``ast`` pass: tracing sees a definition
  run, not its use).

A finding fails the test unless a pattern of ``ALLOWLIST`` (``fnmatch``
over ``module.qualname``) matches its name.
"""

import ast
import fnmatch
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from test_cli import (CAP_EXCEEDED_ARGVS, CAP_EXCEEDED_AT_ONCE_ARGVS,
                      INVALID_CONFIG_ARGVS, LARGE_PRIME_ARGVS, PASS_ARGVS,
                      RANK3_SATAKE_ARGV)
from test_golden_reports import COMMANDS

TESTS = pathlib.Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "glnlab"
README = TESTS.parent / "README.md"

BLOCK = 4  # the shortest run of unexecuted lines that is a finding

# Requests of shapes the CLI accepts and no golden, suite or README line
# runs; each is cheap.  The near-cap rows of TestNearCap stay out.
SHAPES = (
    "lang --p 2 --d 1 --s 3",  # 3 x 3 matrices
    "lang --p 2 --d 2 --s 3",  # 3 x 3 matrices over a tabulated ring
    "building ub-audit --n 3 --p 2",  # products of 3 x 3 matrices
    "dm-check --s 1 --q 4 --n 2",  # sigma^2
    "hecke --n 2 --p 1373 --left=1,0 --right=0,0",  # the strong prime test
    "lfactor --rep trivial --params a,b --q 2",  # the trivial rep
)

# (reason, patterns): at most five entries
ALLOWLIST = (
    ("the element layer: the element objects, `Mat`, and the ring's "
     "element constructors and code valuation, which no claim uses, since "
     "every claim works on codes.  perfbench/tracer.py looks names of it up "
     "(TRACER_LOOKUPS), and the test-side references (reference_iwasawa, "
     "membership, the FractionHalf comparison) and the algebraic-law "
     "tests are written in it; it leaves src/ when the tests take it over "
     "(ROADMAP item 6).  "
     "With it, HalfPowerLaurent's Fraction views a and b: the CLI prints "
     "from the ints, and the tracer's convolve counter, __repr__ and the "
     "tests read them",
     ("rings.Mat", "rings.Mat.*", "rings.LocalRingElement.*",
      "rings.FqElement", "rings.TruncatedLocalRing.element",
      "rings.TruncatedLocalRing.one", "rings.TruncatedLocalRing.valuation",
      "rings.HalfPowerLaurent.a", "rings.HalfPowerLaurent.b")),
    ("value semantics: equality, hashing, printing and immutability of "
     "the value classes, which the tests and a debugger use",
     ("*.__eq__", "*.__hash__", "*.__repr__", "*.__setattr__")),
    ("the packed rings' dot, which only the kernels of s x s matrices, "
     "s >= 2, call: such a ring has more than 256 elements, so GL_2 over "
     "it has more than 10^9 and the default cap refuses every such request "
     "before a product; test_kernels_agree_with_the_dot_path checks it",
     ("rings._poly_ops.<locals>.dot",)),
)

# Looked up by perfbench/tracer.py in a class's own __dict__ (or in the
# module), so each must stay defined exactly there, reached or not.
TRACER_LOOKUPS = (
    "rings.Mat.__mul__", "rings.Mat.inverse", "rings.Mat.det",
    "rings.Mat.__add__", "rings.Mat.sigma", "rings.Mat.scale",
    "rings.Mat.transpose", "rings.Mat.from_ints", "rings.Mat.identity",
    "rings.FiniteField.__init__", "rings.TruncatedLocalRing.__init__",
    "rings.FqElement", "rings.LocalRingElement.__mul__",
    "rings.LocalRingElement.__add__",
)


def readme_argvs():
    """The argv of each ``glnlab ...`` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("glnlab ")]


def claims():
    """[(argv, expected exit code, through the console entry point)],
    each argv once."""
    out = [(argv, 0, False) for argv in COMMANDS.values()]
    out += [(argv, 0, False)
            for argv in PASS_ARGVS + (RANK3_SATAKE_ARGV,) + SHAPES]
    out += [(argv, 2, False) for argv in INVALID_CONFIG_ARGVS]
    out += [(argv, code, False) for argv, code in LARGE_PRIME_ARGVS]
    out += [(argv, 3, False)
            for argv in CAP_EXCEEDED_ARGVS + CAP_EXCEEDED_AT_ONCE_ARGVS]
    argvs = [argv for argv, _, _ in out]
    assert len(set(argvs)) == len(argvs), "a request is listed twice"
    out = [(argv.split(), code, main) for argv, code, main in out]
    out += [(argv, 0, True) for argv in readme_argvs()]
    unique = {}
    for claim in out:
        unique.setdefault(tuple(claim[0]), claim)
    return list(unique.values())


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _functions(path):
    """The code objects of the defs and methods of a source file, nested
    ones too: not its module, class bodies, lambdas or comprehensions."""
    tree = compile(path.read_text(), os.path.realpath(path), "exec")
    return [code for code in _code_objects(tree)
            if code.co_flags & inspect.CO_NEWLOCALS
            and not code.co_name.startswith("<")]


def _statement_names(stmt):
    """The names a def, class or assignment statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def defined_names():
    """module.qualname of every def, class and assignment at the top of
    a module or in a class body, and of every nested def."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        out.update(f"{module}.{code.co_qualname}"
                   for code in _functions(path))
        for stmt in ast.parse(path.read_text()).body:
            out.update(f"{module}.{n}" for n in _statement_names(stmt))
            if isinstance(stmt, ast.ClassDef):
                out.update(f"{module}.{stmt.name}.{n}" for item in stmt.body
                           for n in _statement_names(item))
    return out


def _runs(lines, executed):
    """The maximal runs, at least BLOCK long, of consecutive lines of the
    sorted list lines that are not executed, as (first, last)."""
    out, run = [], []
    for line in lines + [None]:
        if line is not None and line not in executed:
            run.append(line)
            continue
        if len(run) >= BLOCK:
            out.append((run[0], run[-1]))
        run = []
    return out


def _unread_names():
    """module.name of each public module-level class or assignment
    whose name no line of the package outside its statement reads."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {}  # name -> the (module, line) pairs that read it
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                reads.setdefault(name, set()).add((module, node.lineno))
    out = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                continue  # the trace sees whether a function runs
            own = {(module, line)
                   for line in range(stmt.lineno, stmt.end_lineno + 1)}
            out += [f"{module}.{name}" for name in _statement_names(stmt)
                    if not name.startswith("_")
                    and not reads.get(name, set()) - own]
    return out


def findings(entered):
    """(name, what) for each finding of a traced run: entered is the
    run's list of [file, qualname, first line, executed lines]."""
    executed, ran = {}, set()
    for filename, qualname, first, lines in entered:
        path = os.path.realpath(filename)
        executed.setdefault(path, set()).update(lines)
        ran.add((path, qualname, first))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        for code in _functions(path):
            name = f"{path.stem}.{code.co_qualname}"
            if (real, code.co_qualname, code.co_firstlineno) not in ran:
                # a def inside one never entered is not a finding of its own
                outer = code.co_qualname.rpartition(".<locals>.")[0]
                if f"{path.stem}.{outer}" not in {n for n, _ in out}:
                    out.append((name, "never entered"))
                continue
            lines = sorted({line for _, _, line in code.co_lines()
                            if line is not None} - {code.co_firstlineno})
            out += [(name, f"lines {a}-{b} never executed")
                    for a, b in _runs(lines, executed.get(real, set()))]
    return out + [(name, "read by no other line") for name in _unread_names()]


def _excused(name):
    """The ALLOWLIST patterns that match name."""
    return [p for _, patterns in ALLOWLIST for p in patterns
            if fnmatch.fnmatchcase(name, p)]


@pytest.fixture(scope="module")
def traced():
    """(claims, their exit codes, the findings) of one traced run."""
    requests = claims()
    proc = subprocess.run(
        [sys.executable, str(TESTS / "claim_trace.py")],
        input=json.dumps([[argv, main] for argv, _, main in requests]),
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return requests, out["codes"], findings(out["entered"])


def test_every_claim_exits_with_its_code(traced):
    requests, codes, _ = traced
    assert len(codes) == len(requests)
    wrong = [(" ".join(argv), code, want)
             for (argv, want, _), code in zip(requests, codes) if code != want]
    assert not wrong, wrong


def test_every_public_definition_is_reached_or_allowlisted(traced):
    missing = [f"{name}: {what}" for name, what in traced[2]
               if not _excused(name)]
    assert not missing, "run by no claim:\n" + "\n".join(missing)


def test_allowlist_is_current(traced):
    assert len(ALLOWLIST) <= 5
    defs = sorted(defined_names())
    patterns = [p for _, patterns in ALLOWLIST for p in patterns]
    gone = [p for p in patterns if not fnmatch.filter(defs, p)]
    assert not gone, f"allowlisted but no longer defined: {gone}"
    used = {p for name, _ in traced[2] for p in _excused(name)}
    now_reached = [p for p in patterns if p not in used]
    assert not now_reached, f"allowlisted but reached: {now_reached}"


def test_the_names_the_tracer_patches_are_defined_where_it_looks():
    defs = defined_names()
    missing = [q for q in TRACER_LOOKUPS if q not in defs]
    assert not missing, missing


def test_only_rings_names_the_element_layer():
    # every claim works on flat code tuples: no module but rings, where
    # the element layer is defined, names it, in code, comment or text
    layer = re.compile(r"\b(Mat|LocalRingElement|FqElement)\b")
    found = [f"{path.name}:{i}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "rings.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if layer.search(line)]
    assert not found, found


def test_a_traced_audit_leaves_no_wrapper_behind():
    # perfbench/tracer.py rebinds "from .x import f" names only in the
    # modules loaded when it installs; a module first imported during
    # the traced request (audit, by `suite`) keeps any wrapper it binds
    # at import, and the traced run then stops with "tracing wrappers
    # left installed"
    perfbench = PACKAGE.parent.parent / "perfbench"
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracer import Tracer, installed_wrappers\n"
        "from glnlab.cli import run\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['suite', 'paper-audit']) == 0\n"
        "tracer.uninstall()\n"
        "assert installed_wrappers() == [], installed_wrappers()\n"
        "assert tracer.layer_metrics()['lfactor.l_factor.calls'] > 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ,
                                   PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
