"""Each policy with one owner in ``src/bellkit/`` is stated in one place.

Every module is read as a syntax tree, never imported.  A pin names one kind
of call or statement and the functions that make it, each as
``module.function`` (``module.Class.method`` for a method); the test fails
when another function makes it too, or when an owner no longer does.  Names
resolve through each module's imports, so ``product`` imported from
``itertools`` counts as ``itertools.product`` under any alias.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bellkit"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bindings(tree: ast.Module, module: str) -> dict:
    """Each name a module binds by import, anywhere in it, or by a top-level
    definition: the dotted names it may stand for."""
    names: dict = {}
    for node in tree.body:
        for target in node.targets if isinstance(node, ast.Assign) else [node]:
            if isinstance(target, (ast.Name, *_SCOPES)):
                name = getattr(target, "id", None) or target.name
                names.setdefault(name, set()).add(f"bellkit.{module}.{name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                names.setdefault(local, set()).add(alias.name if alias.asname else local)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bellkit" if node.level else "", node.module]))
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, set()).add(f"{base}.{alias.name}")
    return names


def _dotted(node: ast.AST, names: dict) -> set:
    """The dotted names an expression may stand for: ``math.lcm`` for
    ``math.lcm``, ``.read_text`` for a method read off any other value."""
    if isinstance(node, ast.Name):
        return names.get(node.id, {node.id})
    if isinstance(node, ast.Attribute):
        return {f"{base}.{node.attr}" for base in _dotted(node.value, names)}
    return {""}


def _owned_nodes(node: ast.AST, scope: tuple):
    """(owner, node) for every node under ``node``, whose module, class and
    function names are ``scope``: the owner is the enclosing function as
    ``module.function``, or the module's own name at its top level."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, _SCOPES) else scope
        yield ".".join(inner), child
        yield from _owned_nodes(child, inner)


def _call_to(*targets):
    def match(node, names) -> bool:
        return isinstance(node, ast.Call) and bool(_dotted(node.func, names) & set(targets))

    return match


def _read_of(target: str):
    def match(node, names) -> bool:
        loads = isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        return loads and target in _dotted(node, names)

    return match


def _either(*matches):
    def match(node, names) -> bool:
        return any(one(node, names) for one in matches)

    return match


def _sets_the_writeable_flag(node, names) -> bool:
    """An assignment to ``x.flags.writeable`` or ``x.flags[...]``, or a call of
    ``x.setflags``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    for target in targets:
        if isinstance(target, ast.Attribute) and target.attr == "writeable":
            target = target.value
        elif isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "flags":
            return True
    return False


def _reads_a_file(node, names) -> bool:
    """A call of ``open``, of a path's ``read_text``, ``read_bytes`` or ``open``,
    or of a loader's ``get_data``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in ("read_text", "read_bytes", "open", "get_data")
    return bool(_dotted(node.func, names) & {"open", "io.open"})


# pin -> (what a site is, the functions that may make it)
PINS = {
    "binary outcome tuples and the enumeration order, by itertools.product": (
        _call_to("itertools.product"),
        {"lhv._assignments", "scenario._parity_row"},
    ),
    "the read-only flag of an array": (
        _sets_the_writeable_flag,
        {"scenario._read_only"},
    ),
    "the noise intake's local extremes": (
        _call_to("bellkit.lhv.trivial_bounds"),
        {"noise._intake", "noise.tolerance_by_root_scan"},
    ),
    "the report envelope's schema version": (
        _read_of("bellkit.cli.SCHEMA_VERSION"),
        {"cli._run_handler"},
    ),
    "the digest of an input file": (
        _call_to("_sha2.sha256", "_sha256.sha256", "hashlib.sha256"),
        {"cli._read"},
    ),
    "the scaling of coefficients to integers": (
        _call_to("math.lcm"),
        {"scenario._scaled_coefficients"},
    ),
    "the model document's JSON reader": (
        _call_to("json.loads"),
        {"quantum.parse_model"},
    ),
    "the duplicate-term warning": (
        _call_to("warnings.warn"),
        {"exprformat._parse"},
    ),
    "file reads": (
        _reads_a_file,
        {"cli._read", "builtins.g_paper_expansion_fixture"},
    ),
    "the packaged table's location": (
        _either(_call_to("importlib.resources.files"), _read_of("__file__")),
        {"builtins.g_paper_expansion_fixture_path"},
    ),
    "the polar-angle convention, from angles to a Bloch vector": (
        _call_to("numpy.sin", "numpy.cos"),
        {"quantum._bloch_from_angles"},
    ),
    "the polar-angle convention, from a Bloch vector to angles": (
        _call_to("numpy.arccos", "numpy.arctan2"),
        {"quantum._angles_from_bloch"},
    ),
    "the correlator sign rule": (
        _read_of("bellkit.scenario._OUTCOME_SIGNS"),
        {"scenario._parity_row", "quantum"},
    ),
}


def owners(match, root: Path = SRC) -> set:
    """The ``module.function`` of each site in ``root``'s modules that ``match`` accepts."""
    found = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _bindings(tree, path.stem)
        for owner, node in _owned_nodes(tree, (path.stem,)):
            if match(node, names):
                found.add(owner)
    return found


@pytest.mark.parametrize("pin", sorted(PINS))
def test_each_policy_has_its_one_owner(pin):
    match, expected = PINS[pin]
    assert owners(match) == expected


def test_names_resolve_through_aliases_relative_imports_and_methods(tmp_path):
    (tmp_path / "m.py").write_text(
        "import itertools as it\n"
        "from itertools import product as grid\n"
        "from .lhv import trivial_bounds as extremes\n"
        "\n"
        "class Box:\n"
        "    def cells(self):\n"
        "        return grid((0, 1), repeat=2), it.product()\n"
        "\n"
        "def bounds(expr):\n"
        "    def inner():\n"
        "        array.flags.writeable = False\n"
        "    return extremes(expr), open('f').read()\n"
    )
    assert owners(_call_to("itertools.product"), tmp_path) == {"m.Box.cells"}
    assert owners(_call_to("bellkit.lhv.trivial_bounds"), tmp_path) == {"m.bounds"}
    assert owners(_sets_the_writeable_flag, tmp_path) == {"m.bounds.inner"}
    assert owners(_reads_a_file, tmp_path) == {"m.bounds"}
