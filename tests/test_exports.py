"""The library is what the experiments call: every name `randsym` exports
is reached from the package's own code, from the benchmark (perfbench/),
from the acceptance criteria, or is kept on purpose (KEEP, each with the
role that keeps it).  Within the package a reference counts only when it
sits outside the name's own definition and inside code that is itself
reached: module-level code such as the runner's tables, a definition the
package does not export, or the definition of an exported name already
reached.  Imports, docstrings and comments are not references."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "randsym"

KEEP = {
    "enumerate_values": "oracle: tests/test_gap.py checks is_proper and rank_reduce by it",
    "inverse_lo_search": "ROADMAP: the inverse Littlewood-Offord search on sampled forms",
    "near_kernel_vector": "ROADMAP: the proof's chain walked on sampled matrices",
}


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _definitions(tree):
    """({name: line range} of the module's top-level defs, classes and
    assignments, the set of its import lines)."""
    spans, imports = {}, set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(range(node.lineno, node.end_lineno + 1))
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        spans.update((name, range(start, node.end_lineno + 1)) for name in names)
    return spans, imports


def unreached():
    """The exported names not reached by the rule of the module docstring, sorted."""
    exported = set(_exported())
    # (name of the enclosing definition, or None at module level, referenced name)
    refs = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        spans, imports = _definitions(ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            line = tok.start[0]
            if tok.type == tokenize.NAME and tok.string in exported and line not in imports:
                owner = next((d for d, lines in spans.items() if line in lines), None)
                if owner != tok.string:
                    refs.append((owner, tok.string))
    outside = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    outside += (ROOT / "tests" / "test_acceptance.py").read_text()
    reached = set(KEEP) | {n for n in exported if re.search(rf"\b{n}\b", outside)}
    reached |= {name for owner, name in refs if owner not in exported}
    grown = True
    while grown:
        new = {name for owner, name in refs if owner in reached} - reached
        reached |= new
        grown = bool(new)
    return sorted(exported - reached)


def test_every_export_is_reached():
    assert unreached() == []


def test_keep_list_is_exported():
    assert set(KEEP) <= set(_exported())
