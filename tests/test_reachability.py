"""Every public definition of ``glnlab`` is reached from a claim, or is
listed in ``ALLOWLIST`` with the reason it stays.

A claim is a CLI subcommand or a row of the paper audit, so the walk
starts at ``cli.main`` (the console script), ``cli.run``, every
``cli.cmd_*`` and ``audit.CRITERIA`` and ``audit.RANDOM_ORACLE``.  From
a reached definition it follows every name that is read, to the
top-level definitions of that name in any module, and every attribute
that is read.  An attribute of ``self`` or ``cls`` in a class body, or
of a class by its name, reaches that class's member of that name, found
in the class, its bases or its subclasses; any other attribute, or one
that no such class defines, reaches the top-level definitions and class
members of that name.  A reached class also reaches its bases and its
dunder members, which run without being named.  Names are not resolved
to scopes, so a name shared by two definitions reaches both: the walk
over-approximates, and a definition it leaves unreached has no caller
in ``src/``.  Definitions are functions, classes and assignments, at the
top level of a module or in a class body.
"""

import ast
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "glnlab"

ROOTS = ("cli.main", "cli.run", "audit.CRITERIA", "audit.RANDOM_ORACLE")

_TRACED = ("perfbench/tracer.py patches it by name, so `--trace 1` needs it")

ALLOWLIST = {
    "building.membership": ("defines what a ValuationPattern means: the "
                            "valuation test the pattern stands for"),
    "rings.Mat.det": _TRACED + "; building.membership reads it too",
    "rings.Mat.transpose": _TRACED,
    "rings.Mat.scale": _TRACED,
    "rings.FqElement": _TRACED,
}

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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _targets(stmt):
    """Names an assignment statement binds."""
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Assign):
        targets = stmt.targets
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def definitions():
    """{qualified name: (node, member)}: functions, classes and
    assignments at the top level of each module or in a class body;
    member is True for those in a class body.  An assignment's node is
    the statement."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            names = ([stmt.name] if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else _targets(stmt))
            for name in names:
                out[f"{module}.{name}"] = (stmt, False)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    names = ([item.name] if isinstance(
                        item, (ast.FunctionDef, ast.ClassDef))
                        else _targets(item))
                    for name in names:
                        out[f"{module}.{stmt.name}.{name}"] = (item, True)
    return out


def _references(node, owner):
    """(names, attributes, (class, attribute) pairs) read anywhere
    inside node; an attribute of self or cls is paired with owner, the
    qualified name of the class whose body holds node (or None), and
    one of a bare name with that name, left to resolve."""
    names, attrs, pairs = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            base = sub.value
            if not isinstance(base, ast.Name):
                attrs.add(sub.attr)
            elif base.id in ("self", "cls") and owner is not None:
                pairs.add((owner, sub.attr))
            else:
                pairs.add((base.id, sub.attr))
    return names, attrs, pairs


def _class_family(defs):
    """{qualified class name: the qualified names of the package classes
    related to it (itself, its bases and its subclasses, transitively
    each way)}, the bases read by name."""
    classes = {q: node for q, (node, member) in defs.items()
               if isinstance(node, ast.ClassDef) and not member}
    by_name = defaultdict(list)
    for q in classes:
        by_name[q.rsplit(".", 1)[1]].append(q)
    up = {q: {b for base in node.bases if isinstance(base, ast.Name)
              for b in by_name[base.id]} for q, node in classes.items()}
    down = defaultdict(set)
    for q, bases in up.items():
        for b in bases:
            down[b].add(q)

    def closure(q, step):
        out, todo = set(), [q]
        while todo:
            c = todo.pop()
            if c not in out:
                out.add(c)
                todo += step[c]
        return out
    return {q: closure(q, up) | closure(q, down) for q in classes}


def reached(defs):
    """The qualified names the walk reaches from ROOTS and every cmd_*."""
    by_name, by_attr = defaultdict(list), defaultdict(list)
    for qual, (_, member) in defs.items():
        name = qual.rsplit(".", 1)[1]
        by_attr[name].append(qual)
        if not member:
            by_name[name].append(qual)
    family = _class_family(defs)

    def resolve(owner, attr):
        """The members attr of the class owner, a qualified name or a bare
        class name, and of its family; every attr if none has one."""
        owners = [owner] if owner in family else [
            q for q in by_name[owner] if q in family]
        found = [f"{c}.{attr}" for o in owners for c in family[o]
                 if f"{c}.{attr}" in defs]
        return found or by_attr[attr]

    todo = list(ROOTS) + [q for q in defs if q.startswith("cli.cmd_")]
    seen = set()
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        node, member = defs[qual]
        if isinstance(node, ast.ClassDef):
            # the class statement without its members: bases, decorators
            parts = node.bases + node.keywords + node.decorator_list
            todo += [m for m in defs if m.startswith(qual + ".")
                     and _is_dunder(m.rsplit(".", 1)[1])]
        else:
            parts = [node]
        owner = qual.rsplit(".", 1)[0] if member else None
        for part in parts:
            names, attrs, pairs = _references(part, owner)
            for name in names:
                todo += by_name[name]
            for attr in attrs:
                todo += by_attr[attr]
            for base, attr in pairs:
                todo += resolve(base, attr)
    return seen


def _public(qual):
    return not any(part.startswith("_") for part in qual.split(".")[1:])


def _excused(qual):
    """Allowlisted, or a member of an allowlisted class."""
    parts = qual.split(".")
    return any(".".join(parts[:k]) in ALLOWLIST
               for k in range(2, len(parts) + 1))


def test_every_public_definition_is_reached_or_allowlisted():
    defs = definitions()
    seen = reached(defs)
    missing = sorted(q for q in defs
                     if _public(q) and q not in seen and not _excused(q))
    assert not missing, f"reached from no claim: {missing}"


def test_allowlist_is_current():
    defs = definitions()
    seen = reached(defs)
    gone = sorted(q for q in ALLOWLIST if q not in defs)
    assert not gone, f"allowlisted but no longer defined: {gone}"
    now_reached = sorted(q for q in ALLOWLIST if q in seen)
    assert not now_reached, f"allowlisted but reached: {now_reached}"


def test_the_names_the_tracer_patches_are_defined_where_it_looks():
    defs = definitions()
    missing = [q for q in TRACER_LOOKUPS if q not in defs]
    assert not missing, missing


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
