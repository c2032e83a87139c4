"""Code lines per module of ``src/sbchain``, and their total.

    python tests/ci/line_count.py

A code line is not blank, not a "#" line and not inside a docstring (of the
module, a class or a function). Beside each count, the tracemalloc peak of
compiling the module: an import without cached bytecode pays it, and it can
set the process's RSS. Run from the repository root; paths print relative to
it. Not collected by pytest (no ``test_`` prefix).
"""

import ast
import pathlib
import tracemalloc

tracemalloc.start()
total = 0
for path in sorted(pathlib.Path("src/sbchain").glob("*.py")):
    text = path.read_text()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    compile(text, str(path), "exec")
    peak = (tracemalloc.get_traced_memory()[1] - base) / 1024
    docs = set()
    for node in ast.walk(ast.parse(text)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(
        1 for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in docs
    )
    total += code
    print(f"{code:7d} {path} (compile peak {peak:.0f} KiB)")
print(f"{total:7d} code lines")
