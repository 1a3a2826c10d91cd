"""The public surface of ``qfidet``: every public module-level function and class, and every
public method and property of a public class, is used by other program code.

A public name that only tests call is a reference route or dead code.  Reference
routes live in ``tests/oracles.py``; dead code goes.  A use is a name loaded or
read as an attribute somewhere in ``src/qfidet`` outside the definition itself,
or a function named as a string in ``campaign.CHECKS``, which looks its
functions up by name.  Imports, ``__all__``, docstrings and comments are not
uses.  Methods and properties are matched by name alone, not by class, so a
name that another class or a module also defines limits the walk: a property
``PreparedInstance.state`` would count as used by every read of
``LoadedInstance.state``.

The surface has one door to numpy's linear algebra: no module but ``linalg.py``
names ``np.linalg``, so every eigendecomposition goes through
``linalg.hermitian_eigen`` (and its tracer sees them all).  And one judge of
symmetry: exactly one function, the door ``require_hermitian``, reads
``SYMMETRY_TOL``, and no module imports a private name of ``linalg``, so every
matrix from outside is held to the same rule and text.  The kernels that take
what a block built (the eigensolver, the determinants and ``pinching``) reach
no judge: only the doors judge a matrix's values.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import qfidet

SRC = Path(qfidet.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# (module, name) -> why the name stays although no program path calls it
KEPT = {
    ("io", "save_instance"): "writes an instance file, for replaying a report row into one",
    ("cli", "entry"): "the console script that pyproject.toml names",
}


def _traced() -> set:
    """(module, name) of every function that the benchmark's tracer looks up by name."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return {(module, name) for module, names in ast.literal_eval(node.value).items() for name in names}
    raise AssertionError(f"{TRACER} defines no TRACED")


def _uses(node) -> Counter:
    """Names that ``node`` loads or reads as attributes, and the strings in CHECKS' values."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Assign) and any(getattr(t, "id", None) == "CHECKS" for t in sub.targets):
            strings = (c for v in sub.value.values for c in ast.walk(v) if isinstance(c, ast.Constant))
            found.update(c.value for c in strings if isinstance(c.value, str))
    return found


def _unused(src: Path) -> list:
    """(module, name) of each public module-level function or class in ``src`` that nothing
    outside its own definition uses, and (module, "Class.name") of each public method or
    property of a public class whose name nothing outside that method's definition uses."""
    statements = []  # (module, statement, its uses)
    for path in sorted(src.glob("*.py")):
        statements += [(path.stem, node, _uses(node)) for node in ast.parse(path.read_text()).body]
    total = sum((uses for _, _, uses in statements), Counter())
    unused = []
    for module, node, uses in statements:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            if total[node.name] - uses[node.name] == 0:
                unused.append((module, node.name))
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    if total[member.name] - _uses(member)[member.name] == 0:
                        unused.append((module, f"{node.name}.{member.name}"))
    return unused


def test_every_public_function_and_class_has_a_program_caller():
    exempt = _traced() | set(KEPT)
    assert [name for name in _unused(SRC) if name not in exempt] == []


def test_every_exempt_name_still_exists():
    defined = set()
    for path in SRC.glob("*.py"):
        body = ast.parse(path.read_text()).body
        defined |= {(path.stem, node.name) for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert (_traced() | set(KEPT)) - defined == set()


def test_the_walk_counts_loads_attributes_and_check_names_only(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""used_in_docstring"""\n'
        "from .b import imported_only\n"
        "__all__ = ['listed_only']\n"
        "def recursive():\n    return recursive()\n"
        "def called():\n    pass\n"
        "def by_attribute():\n    pass\n"
        "def by_check_name():\n    pass\n"
        "def listed_only():\n    pass\n"
        "def imported_only():\n    pass\n"
        "def used_in_docstring():\n    pass\n"
        "class _Private:\n    pass\n"
        "class Shown:\n"
        "    def read(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def recursive_method(self):\n        return self.recursive_method()\n"
        "    @property\n    def unread(self):\n        return 0\n"
        "    def _private(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text(
        "import a\n"
        "CHECKS = {'listed_only': ('by_check_name', None)}\n"
        "def user():\n    # recursive()\n    return called(), a.by_attribute(), a.Shown().read()\n"
    )
    assert _unused(tmp_path) == [
        ("a", "recursive"),
        ("a", "listed_only"),
        ("a", "imported_only"),
        ("a", "used_in_docstring"),
        ("a", "Shown.recursive_method"),
        ("a", "Shown.unread"),
        ("b", "user"),
    ]


def _linalg_uses(src: Path) -> list:
    """(module, line, text) of each ``np.linalg`` (or ``numpy.linalg``) name and each import from
    ``numpy.linalg`` in ``src`` outside ``linalg.py``.  An exception type named in an ``except``
    clause, such as ``np.linalg.LinAlgError``, is not a use."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text())
        caught = {id(sub) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type for sub in ast.walk(h.type)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("np.linalg", "numpy.linalg"):
                used = id(node) not in caught
            elif isinstance(node, ast.ImportFrom):
                used = (node.module or "").startswith("numpy.linalg")
            elif isinstance(node, ast.Import):
                used = any(alias.name.startswith("numpy.linalg") for alias in node.names)
            else:
                used = False
            if used:
                found.append((path.stem, node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_but_linalg_names_np_linalg():
    assert _linalg_uses(SRC) == []


def test_the_linalg_walk_finds_calls_names_and_imports_and_skips_caught_errors(tmp_path):
    (tmp_path / "linalg.py").write_text("import numpy as np\ndef eigen(m):\n    return np.linalg.eigh(m)\n")
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "def least(m):\n    return np.linalg.eigvalsh(m)[0]\n"
        "solve = np.linalg.solve\n"
        "def guarded(m):\n"
        "    try:\n        return least(m)\n"
        "    except (ArithmeticError, np.linalg.LinAlgError):\n        return None\n"
    )
    (tmp_path / "b.py").write_text("from numpy.linalg import eigh\nimport numpy.linalg\n")
    assert _linalg_uses(tmp_path) == [
        ("a", 3, "np.linalg.eigvalsh"),
        ("a", 4, "np.linalg.solve"),
        ("b", 1, "from numpy.linalg import eigh"),
        ("b", 2, "import numpy.linalg"),
    ]


def _readers(src: Path, name: str) -> list:
    """(module, function) of each function in ``src`` that reads ``name``, as a name or an attribute,
    outside the functions nested in it; a read outside every function is charged to "<module>"."""
    found = set()

    def visit(node, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            read = getattr(child, "id", None) == name or getattr(child, "attr", None) == name
            if read and isinstance(getattr(child, "ctx", None), ast.Load):
                found.add((module, where))
            visit(child, module, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sorted(found)


def _private_linalg_imports(src: Path) -> list:
    """(module, line, name) of each ``_``-prefixed name that a module of ``src`` imports from ``linalg``
    or reads as an attribute of ``linalg``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
                found += [(path.stem, node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if ast.unparse(node.value).split(".")[-1] == "linalg":
                    found.append((path.stem, node.lineno, node.attr))
    return sorted(found)


def _reached(src: Path, roots) -> set:
    """Names of the module-level functions of ``src`` that the functions named ``roots`` reach: each
    function that one of them loads by name or as an attribute, and so on, matched by name alone."""
    functions = {}
    for path in sorted(src.glob("*.py")):
        functions.update((node.name, node) for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef))
    reached, todo = set(), list(roots)
    while todo:
        for name in _uses(functions[todo.pop()]):
            if name in functions and name not in reached:
                reached.add(name)
                todo.append(name)
    return reached


def test_one_function_reads_the_symmetry_tolerance():
    assert _readers(SRC, "SYMMETRY_TOL") == [("linalg", "require_hermitian")]


def test_no_kernel_reaches_the_judge():
    # the eigensolver, the determinants and pinching take what their callers built or judged
    kernels = ("hermitian_eigen", "det_real_symmetric", "det_antisymmetric", "pinching")
    judges = {"require_hermitian"} | {function for _, function in _readers(SRC, "SYMMETRY_TOL")}
    assert _reached(SRC, kernels) & judges == set()


def test_no_module_imports_a_private_name_of_linalg():
    assert _private_linalg_imports(SRC) == []


def test_the_symmetry_walks_find_every_reader_and_private_import(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "TOL = 1e-12\n"
        "def judge(m):\n    return m < TOL\n"
        "def outer(m):\n    def inner():\n        return TOL\n    return inner\n"
        "class Kernel:\n    def check(self, m):\n        return m < TOL\n"
    )
    (tmp_path / "a.py").write_text(
        "from . import linalg\n"
        "from .linalg import TOL, _hidden\n"
        "from qfidet.linalg import judge as _judge\n"
        "WIDE = 2 * linalg.TOL\n"
        "def check(m):\n    return linalg._stack(m), _hidden(m)\n"
    )
    assert _readers(tmp_path, "TOL") == [("a", "<module>"), ("linalg", "check"), ("linalg", "inner"), ("linalg", "judge")]
    assert _private_linalg_imports(tmp_path) == [("a", 2, "_hidden"), ("a", 6, "_stack")]
    # through a helper, as an attribute and by recursion, and not through a name in a docstring
    (tmp_path / "b.py").write_text(
        "def kernel(m):\n    return _helper(m)\n"
        "def _helper(m):\n    return linalg.judge(m) + _helper(m)\n"
        'def clean(m):\n    """judge"""\n    return m\n'
    )
    assert _reached(tmp_path, ["kernel"]) == {"_helper", "judge"}
    assert _reached(tmp_path, ["clean"]) == set()
