"""Run CLI requests under ``sys.settrace`` and report the lines of
``glnlab`` they execute.

Reads a JSON list of ``[argv, via_main]`` pairs on stdin, installs the
tracer, and only then imports ``glnlab``, so module and class bodies
count.  Each argv goes to ``glnlab.cli.run``, or, when via_main is
true, to the console entry point ``glnlab.cli.main`` as ``sys.argv``.
Prints one JSON object: ``codes``, the exit code of each request in
order, and ``entered``, one ``[file, qualname, first line, executed
lines]`` row per code object of ``glnlab`` that ran.  A code object's
first line counts as executed once it is entered.  A code object
whose lines have all run is no longer traced.  Only the stdlib is used.

Usage: PYTHONPATH=src python tests/claim_trace.py < argvs.json
"""

import contextlib
import io
import json
import os
import sys


def trace(requests, package):
    package = os.path.join(os.path.realpath(package), "")
    todo = {}  # code object of glnlab -> its lines not yet executed
    locals_ = {}  # code object -> its line tracer, or None outside glnlab
    inside = {}  # file name -> whether it is in the package

    def local_for(left):
        def local(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
                if not left:
                    frame.f_trace_lines = False
            return local
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in locals_:
            locals_[code] = None
            name = code.co_filename
            if name not in inside:
                inside[name] = os.path.realpath(name).startswith(package)
            if inside[name]:
                left = todo[code] = {line for _, _, line in code.co_lines()
                                     if line is not None}
                left.discard(code.co_firstlineno)
                locals_[code] = local_for(left)
        return locals_[code] if todo.get(code) else None

    sys.settrace(on_call)
    try:
        from glnlab import cli
        codes = []
        for argv, via_main in requests:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if via_main:
                    saved, sys.argv = sys.argv, ["glnlab"] + argv
                    try:
                        cli.main()
                    except SystemExit as exc:
                        codes.append(exc.code)
                    finally:
                        sys.argv = saved
                else:
                    codes.append(cli.run(argv))
    finally:
        sys.settrace(None)
    entered = []
    for code, left in todo.items():
        lines = {line for _, _, line in code.co_lines() if line is not None}
        lines.add(code.co_firstlineno)
        entered.append([code.co_filename, code.co_qualname,
                        code.co_firstlineno, sorted(lines - left)])
    return {"codes": codes, "entered": entered}


if __name__ == "__main__":
    package = os.path.join(os.path.dirname(__file__), "..", "src", "glnlab")
    json.dump(trace(json.load(sys.stdin), package), sys.stdout)
