"""The public surface: every exported name resolves, and the names taken
out of the package stay out."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import weakcorr

SRC = Path(weakcorr.__file__).parent
MODULES = ["weakcorr"] + [
    f"weakcorr.{info.name}"
    for info in pkgutil.iter_modules(weakcorr.__path__)
    if info.name != "__main__"  # importing it runs the command line
]

# Names no module may define or export any more.
REMOVED = {
    "weakcorr": ["AncillaPair", "PostselectionTerm", "reconstruct_element"],
    "weakcorr.cli": ["convey", "dump_state", "_copies_reports", "_csv_row"],
    "weakcorr.conveyance": ["AncillaPair", "OUTCOME_TOL"],
    "weakcorr.estimator": [
        "PostselectionTerm",
        "reconstruct_element",
        "_limits_lines",
        "_marginal_rows",
        "_copies_reports",
        "_reports",
        "_party_views",
        "_Lines",
        "_check_broadcast_outcome",
    ],
    "weakcorr.pointer": ["POSTSELECTION_TOL"],
}
REMOVED_METHODS = {
    "DeviceTable": ["scope", "projector", "shift_digit"],
    "BranchState": ["branches", "assemble"],
    "CorrelationReport": ["per_k"],
}
REMOVED_PARAMETERS = {
    "bell_state": ["variant"],
    "broadcast": ["variant"],
    "is_mutually_unbiased": ["tol"],
    "weak_value_limits": ["table"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_stay_removed(name):
    module = importlib.import_module(name)
    for item in REMOVED[name]:
        assert not hasattr(module, item), item
        assert item not in getattr(module, "__all__", ()), item


def test_removed_methods_and_parameters_stay_removed():
    for cls, methods in REMOVED_METHODS.items():
        assert [m for m in methods if hasattr(getattr(weakcorr, cls), m)] == [], cls
    for fn, params in REMOVED_PARAMETERS.items():
        assert not set(params) & set(inspect.signature(getattr(weakcorr, fn)).parameters), fn


def imported_names(tree):
    """Every name an import statement of ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def exported_names(tree):
    """The names the module of ``tree`` lists in ``__all__``."""
    for node in tree.body:
        if "__all__" in [getattr(t, "id", "") for t in getattr(node, "targets", [])]:
            return set(ast.literal_eval(node.value))
    return set()


# The package's __init__.py imports only to re-export; the tests above check it.
@pytest.mark.parametrize("name", sorted({p.name for p in SRC.glob("*.py")} - {"__init__.py"}))
def test_no_module_imports_a_name_it_never_uses(name):
    tree = ast.parse((SRC / name).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used - exported_names(tree)) == []



# Each rule of a classical protocol setting, and the one function that may
# write it: the outcome range check, and the damping rate g^2 / (8 sigma^2),
# whose 8 is no other constant of the package.
ONE_PLACE_RULES = {
    "outcome range": (
        lambda node: isinstance(node, ast.Raise)
        and "ImpossibleOutcome" in ast.unparse(node)
        and "out of range for dimension" in ast.unparse(node),
        ("qcore.py", "_outcome"),
    ),
    "damping rate": (
        lambda node: isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value == 8,
        ("pointer.py", "__post_init__"),
    ),
}


@pytest.mark.parametrize("rule", ONE_PLACE_RULES)
def test_each_setting_rule_is_written_in_one_place(rule):
    matches, place = ONE_PLACE_RULES[rule]
    found = [
        (path.name, func.name)
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if matches(node)
    ]
    assert found == [place]


def located(matches):
    """(file, scope) of every node of ``src/`` that ``matches``.  The scope
    is the innermost enclosing function, or else the name that a
    module-level or class-level assignment binds."""

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.FunctionDef):
                inner = child.name
            elif scope is None and isinstance(child, ast.Assign):
                inner = ast.unparse(child.targets[0])
            elif scope is None and isinstance(child, ast.AnnAssign):
                inner = ast.unparse(child.target)
            if matches(child):
                yield name, inner
            yield from visit(name, child, inner)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(path.name, ast.parse(path.read_text()), None)


# Each rule for a kind of number, and the places that may write it.
NUMBER_RULES = {
    # The printed float format: one constant every report template is built from.
    "float format": (
        lambda node: isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ".11e" in node.value,
        [("cli.py", "_FLOAT")],
    ),
    # Tolerances: qcore's three constants, the reconstruction's zero test,
    # the decomposition weights' sum and the normalization floor.
    "small float literal": (
        lambda node: isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < node.value < 1e-6,
        [
            ("cli.py", "load_state"),
            ("estimator.py", "reconstruct_matrix"),
            ("qcore.py", "STRUCT_TOL"),
            ("qcore.py", "SPECTRAL_TOL"),
            ("qcore.py", "SKIP_THRESHOLD"),
            ("qcore.py", "normalized"),
        ],
    ),
    # operator.index: the integer reader, and the accepted path of a dims read.
    "integer read": (
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "index"
        and ast.unparse(node.value) == "operator",
        [("qcore.py", "_integer"), ("qcore.py", "_dims_tuple")],
    ),
    # int() only where it converts a number the package computed or already
    # checked (a rendered integer, a config outcome, two products of dims),
    # and in ket's parse of a label's digit.
    "int conversion": (
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "int",
        [
            ("cli.py", "_render"),
            ("cli.py", "_split_outcomes"),
            ("pointer.py", "line1_dim"),
            ("pointer.py", "postselect_and_read"),
            ("qcore.py", "ket"),
        ],
    ),
}


@pytest.mark.parametrize("rule", NUMBER_RULES)
def test_each_number_rule_has_its_one_home(rule):
    matches, places = NUMBER_RULES[rule]
    assert list(located(matches)) == places
