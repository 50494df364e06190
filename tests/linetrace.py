"""Which statements of a package's function bodies a run executes.

``record_lines`` traces, with ``sys.settrace``, the lines executed in the
files of one directory. ``unrun_statements`` lists the statements of the
function bodies there that no recorded line belongs to. Module and class
bodies run at import, before any trace, so they are not counted; neither
are ``raise`` statements, the methods of exception classes, docstrings and
``global`` or ``nonlocal`` declarations, which compile to no line.
"""

import ast
import builtins
import os
import sys
from contextlib import contextmanager
from itertools import groupby
from pathlib import Path

@contextmanager
def record_lines(directory: Path, lines: set):
    """Add ``(file name, line)`` of each line executed in a file under
    ``directory`` to ``lines`` while the block runs. Frames of other files
    are not traced line by line; the trace in force before is restored."""
    prefix = str(directory) + os.sep

    def trace_lines(frame, event, _arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, _event, _arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        yield lines
    finally:
        sys.settrace(previous)


def exception_classes(tree: ast.Module) -> set:
    """Names of the exception classes of one file: the classes with a base
    that is a builtin exception or an exception class of the same file."""
    found = set()
    for node in sorted((node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)),
                       key=lambda node: node.lineno):
        for base in node.bases:
            name = getattr(base, "id", "")
            builtin = getattr(builtins, name, None)
            if name in found or isinstance(builtin, type) and issubclass(builtin, BaseException):
                found.add(node.name)
    return found


def _own_lines(statement: ast.stmt) -> range:
    """The lines of a statement outside the statements nested in it: a
    compound statement's header, decorators included, or all of a simple
    statement."""
    start = min([statement.lineno] + [d.lineno for d in
                                      getattr(statement, "decorator_list", [])])
    body = getattr(statement, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(start + 1, body[0].lineno))
    return range(start, statement.end_lineno + 1)


def counted_statements(path: Path) -> list:
    """``(qualified function name, statement)`` of each counted statement
    of one file, in source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exceptions = exception_classes(tree)
    found = []

    def visit(body, qualname, in_function, exempt):
        for index, statement in enumerate(body):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function and not exempt:
                    found.append((qualname, statement))
                inner = f"{qualname}.{statement.name}" if qualname else statement.name
                if isinstance(statement, ast.ClassDef):
                    visit(statement.body, inner, False, statement.name in exceptions)
                else:
                    visit(statement.body, inner, True, exempt)
                continue
            docstring = (index == 0 and isinstance(statement, ast.Expr)
                         and isinstance(statement.value, ast.Constant)
                         and isinstance(statement.value.value, str))
            if in_function and not exempt and not docstring and not isinstance(
                    statement, (ast.Raise, ast.Global, ast.Nonlocal)):
                found.append((qualname, statement))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(statement, field, []), qualname, in_function, exempt)
            for handler in getattr(statement, "handlers", []):
                visit(handler.body, qualname, in_function, exempt)

    visit(tree.body, "", False, False)
    return sorted(found, key=lambda item: item[1].lineno)


def unrun_statements(directory: Path, lines: set) -> dict:
    """Each run of consecutive counted statements of one function that no
    line in ``lines`` belongs to, as ``(module.function, first line of its
    first statement, statement count)`` mapped to the statements' line
    numbers."""
    gaps = {}
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = {line for name, line in lines if name == str(path)}
        by_function = {}
        for qualname, statement in counted_statements(path):
            by_function.setdefault(qualname, []).append(statement)
        for qualname, statements in by_function.items():
            for reached, run in groupby(
                    statements, key=lambda s: not ran.isdisjoint(_own_lines(s))):
                if not reached:
                    numbers = [statement.lineno for statement in run]
                    first = source[numbers[0] - 1].strip()
                    gaps[(f"{path.stem}.{qualname}", first, len(numbers))] = numbers
    return gaps
