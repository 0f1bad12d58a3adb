"""Every function and class of the package has a caller inside the package.

Code that only the tests call belongs in tests/ (see conftest.py).  The scan
parses each module of src/wavebox and counts a definition as used when its
name appears as a name or attribute anywhere in the package's code; names in
comments and docstrings do not count, and dunder methods are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wavebox"


def test_no_definition_without_a_caller_in_the_package():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50
    assert [d for d in defined if d.split(".")[1] not in used] == []
