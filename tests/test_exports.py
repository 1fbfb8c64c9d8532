"""No exports that only tests use.

Every public top-level function or class of ``src/spinweb``, and every
public method of a public class, must be used somewhere in ``src/`` or
``scripts/`` other than its definition and ``import`` lines.  A use is a
name or an attribute of that name in the code; a name reached by a
``globals()[f"prefix{...}"]`` lookup (the CLI's ``cmd_<command>``
functions) counts as used when it starts with such an f-string's literal
prefix.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spinweb").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def _uses() -> tuple[set[str], tuple[str, ...]]:
    """Names and attributes read in the package and the scripts, and the
    literal prefixes of their ``globals()[f"..."]`` lookups."""
    names, prefixes = set(), set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.JoinedStr)
                  and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "globals"
                  and isinstance(node.slice.values[0], ast.Constant)):
                prefixes.add(node.slice.values[0].value)
    return names, tuple(prefixes)


def _public_definitions():
    """(label, name) of each public top-level def or class and public method."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.name}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.name}:{node.name}.{item.name}", item.name


def test_every_public_definition_is_used_outside_the_tests():
    names, prefixes = _uses()
    unused = [label for label, name in _public_definitions()
              if name not in names and not name.startswith(prefixes)]
    assert unused == []
