"""Every module under ``ie_ray/``, ``__ray_entry__.py``, ``bench.py`` and
every ``scripts/*.py`` uses each name it imports.

AST only, nothing is imported.  A name counts as used when it appears as
a ``Name`` node anywhere in the module, inside a string annotation, or in
``__all__``.  Package ``__init__.py`` files re-export on purpose and are
exempt, as is ``from __future__ import ...``.
"""

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _string_annotation_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                used.update(_string_annotation_names(ann))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return used


def unused_imports(path):
    """``[(lineno, name), ...]`` imported in ``path`` and never used."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.append((node.lineno,
                                 a.asname or a.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported.append((node.lineno, a.asname or a.name))
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports_in_engine():
    paths = [os.path.join(root, fn)
             for root, _, files in os.walk(os.path.join(REPO, "ie_ray"))
             for fn in sorted(files)
             if fn.endswith(".py") and fn != "__init__.py"]
    paths += [os.path.join(REPO, "__ray_entry__.py"),
              os.path.join(REPO, "bench.py")]
    paths += sorted(glob.glob(os.path.join(REPO, "scripts", "*.py")))
    hits = ["%s:%d %s" % (os.path.relpath(path, REPO), line, name)
            for path in paths for line, name in unused_imports(path)]
    assert not hits, "\n".join(sorted(hits))
