"""Guards on the public surface of the package.

The package exports one spelling per concept, through its one export list;
a name added to or dropped from ``heisenfock.__all__`` must change the
pinned list below on purpose.  Every exported name has a caller in the
package apart from ``__init__``, or sits in a pinned list of the names that
have none.
Every exported name must resolve, and the library reads no environment
variable: every option is an argument or a documented constant.  Mode
errors are raised in one module, ``fock``, whose checks every caller uses,
and the weighted derivation and the fused coefficient write have their one
home there too.  Type and fiber coordinates have one reader,
``serialize._coordinate``, the only caller of ``_finite``, and the type is
read by lambda's slots below the public boundary, with no index or sector
arithmetic.
The package resolves each exported name on first access (PEP 562) to the
object its home module defines, and ``dir`` and ``import *`` see every one.
The docstring examples of every module run and pass.  Private code (a
module-level function or class whose name, or whose module's name, starts
with ``_``, and which the package does not export) has a caller in the
package; the module hooks of PEP 562, which the interpreter calls, are
exempt.  Every method of a class in the package is read as an attribute, or
looked up by its name string, somewhere in the package outside its own
definition.
"""

import ast
import doctest
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import heisenfock

PUBLIC = [
    "BosonIndexError", "CmnTable", "FiberPoint", "FockVector",
    "HighestWeightError", "IsotropicTopError", "LambdaSequence",
    "ModeRangeError", "NonSquareError", "NumericFailure", "PreconditionError",
    "QuadraticElement", "ReductionCertificate", "ReductionError",
    "ReductionStep", "Scalar", "SchemaError", "Sector", "SectorMismatchError",
    "WhittakerReport", "WhittakerType", "act_mode", "as_scalar", "bilinear",
    "binom_mode_identity_check", "binom_transfer_matrix", "certify_cyclic",
    "cmn_table", "commutator_check", "delta_z_apply", "extract_fiber_data",
    "fiber_dimension", "format_scalar", "j_generator", "mode_apply",
    "mode_text", "monomial_text", "omega", "parse_scalar", "quadratic_act",
    "quadratic_check", "reduce_step", "scalar_sqrt", "solve_fiber",
    "theta_involution", "twisted_mode_apply", "twisted_virasoro_mode",
    "type_eigenvalues", "verify_certificate", "verify_whittaker_vector",
    "virasoro_bracket_check", "virasoro_mode", "weighted_partial",
    "whittaker_type_of",
]

# exported names that no module of the package calls: user-facing
# operations, and names that open roadmap items would call
UNCALLED_IN_SOURCE = {
    # user-facing operations, which the benchmark also calls
    "act_mode", "weighted_partial",
    # aliases of mode_apply and virasoro_mode: the benchmark calls them by name
    "twisted_mode_apply", "twisted_virasoro_mode",
    # user-facing fiber operations
    "extract_fiber_data", "fiber_dimension",
    # claimed by the M(1)^+ replay, generator and Borcherds roadmap items
    "binom_transfer_matrix", "j_generator", "theta_involution",
}

SOURCE = Path(heisenfock.__file__).parent

# module attribute hooks (PEP 562), which attribute lookups on the module call
PEP_562_HOOKS = {"__getattr__", "__dir__"}


def _modules():
    yield heisenfock
    for info in pkgutil.iter_modules(heisenfock.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"heisenfock.{info.name}")


def test_package_exports_are_pinned():
    assert sorted(heisenfock.__all__) == PUBLIC


def test_every_exported_name_resolves():
    checked = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked >= len(PUBLIC)


def test_exports_resolve_lazily_to_their_home_objects():
    # the package resolves each exported name on first access (PEP 562):
    # it must be the very object its home module defines
    for name in heisenfock.__all__:
        obj = getattr(heisenfock, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
        assert vars(heisenfock)[name] is obj  # bound once, then a plain read
    assert set(dir(heisenfock)) >= set(heisenfock.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from heisenfock import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert len(PUBLIC) == 54


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        heisenfock.no_such_name
    assert not hasattr(heisenfock, "no_such_name")


def test_library_reads_no_environment():
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        for needle in ("os.environ", "getenv"):
            assert needle not in text, f"{path.name} uses {needle}"


def test_mode_errors_have_one_home():
    raising = [path.name for path in sorted(SOURCE.rglob("*.py"))
               if "raise ModeRangeError(" in path.read_text(encoding="utf-8")]
    assert raising == ["fock.py"]


def test_derivation_has_one_home():
    # every derivative runs through fock's kernel: no other module defines
    # a derivation or goes through the public, re-checking weighted_partial
    defining, calling = [], []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (
                    "partial" in node.name or "deriv" in node.name):
                defining.append((path.name, node.name))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                if name == "weighted_partial":
                    calling.append(path.name)
    assert defining == [("fock.py", "weighted_partial"),
                        ("fock.py", "_add_weighted_partial2")]
    assert set(calling) <= {"fock.py"}


def test_fused_write_has_one_home():
    # a product summed into a taken slot is written by the kernel alone:
    # the ring operations reach it through _add_weighted_partial2
    callers = set()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_accumulate_raw"
                    for call in ast.walk(node)):
                callers.add((path.name, node.name))
    assert callers == {("fock.py", "_add_weighted_partial2")}


def test_ring_operations_have_no_coefficient_loop():
    # sums, differences, negation, scalings and creation write their
    # coefficients through _add_weighted_partial2: fock keeps no summing
    # helper of its own, and these methods loop over no terms themselves
    tree = ast.parse((SOURCE / "fock.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert "_accumulate" not in names
    vector = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "FockVector")
    methods = {node.name: node for node in vector.body
               if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    for name in ("__add__", "__sub__", "__neg__", "scaled", "scaled_fraction",
                 "times_variable"):
        assert not any(isinstance(node, loops)
                       for node in ast.walk(methods[name])), name


def test_one_plan_call_site():
    # every state monomial is planned under the one key: the vertex engine
    # calls _plan once, with no fork on the factor count
    sites = [path.name for path in sorted(SOURCE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_plan"]
    assert sites == ["vertex.py"]


def test_one_parts_source():
    # a field's parts have one source: exp(Delta_z) is applied at one call
    # site, and neither front door nor the omega cache names a sector
    sites = [path.name for path in sorted(SOURCE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "delta_z_apply"]
    assert sites == ["vertex.py"]
    tree = ast.parse((SOURCE / "vertex.py").read_text(encoding="utf-8"))
    doors = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and node.name in ("mode_apply", "virasoro_mode", "_omega_parts")}
    assert len(doors) == 3
    for name, node in doors.items():
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and getattr(n.value, "id", None) == "Sector"], name


def test_one_coordinate_reader():
    # every type and fiber coordinate is read by the inverse of the one
    # writer: no other function checks finiteness, and neither file reader
    # parses a coordinate itself
    calls = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                calls[path.name, node.name] = {
                    getattr(call.func, "id", getattr(call.func, "attr", None))
                    for call in ast.walk(node) if isinstance(call, ast.Call)}
    assert [key for key, names in calls.items() if "_finite" in names] == [
        ("serialize.py", "_coordinate")]
    for name in ("whittaker_type_from_json", "vectors_from_json"):
        assert not calls["serialize.py", name] & {"parse_scalar", "_finite"}


def test_type_is_read_by_slot():
    # entry k of a type is the half pair sum over slots a + b = k + t: the
    # sums, the solver and the residual name no index, parity or sector
    tree = ast.parse((SOURCE / "whittaker.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    index_readers = {"epsilon", "parity", "first_index", "last_index", "value"}
    for name in ("_type_sums", "_half_pair_sum", "_back_substitute",
                 "solve_fiber", "numeric_type_residual", "whittaker_type_of"):
        read = {node.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Attribute)}
        assert not read & index_readers, name


def test_docstring_examples_pass():
    attempted = 0
    for module in _modules():
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 1


def _references(node, skip=None):
    """Names that node loads or reads as attributes, outside the subtree
    ``skip``; an import alias counts for the name it imports.  A name that
    is only assigned to, as an alias is, is not a reference."""
    names, aliases = set(), {}
    stack = [node]
    while stack:
        item = stack.pop()
        if item is skip:
            continue
        if isinstance(item, ast.Name):
            if isinstance(item.ctx, ast.Load):
                names.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
        elif isinstance(item, ast.ImportFrom):
            aliases.update((a.asname, a.name) for a in item.names if a.asname)
        stack.extend(ast.iter_child_nodes(item))
    return names | {name for asname, name in aliases.items() if asname in names}


def test_twisted_names_alias_the_one_operator():
    # one mode operator serves both sectors; the twisted names must not grow
    # back into second implementations
    assert heisenfock.twisted_mode_apply is heisenfock.mode_apply
    assert heisenfock.twisted_virasoro_mode is heisenfock.virasoro_mode


def test_exported_names_have_a_src_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.rglob("*.py"))
             if path.name != "__init__.py"]
    uncalled = set()
    for name in heisenfock.__all__:
        for tree in trees:
            # a definition does not call itself
            definition = next((node for node in tree.body
                               if getattr(node, "name", None) == name), None)
            if name in _references(tree, skip=definition):
                break
        else:
            uncalled.add(name)
    assert uncalled == UNCALLED_IN_SOURCE


def test_private_code_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.rglob("*.py"))}
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name in heisenfock.__all__ or not (
                    name.startswith("_") or module.startswith("_")):
                continue
            if name in PEP_562_HOOKS:  # the interpreter calls them
                continue
            if not any(name in _references(other, skip=node)
                       for other in trees.values()):
                uncalled.append(f"{module}.{name}")
    assert uncalled == []


def _method_reads(node, skip):
    """Attribute names that node reads, and its string constants (a name
    ``hasattr`` or ``getattr`` looks up), outside the subtree ``skip``."""
    names = set()
    stack = [node]
    while stack:
        item = stack.pop()
        if item is skip:
            continue
        if isinstance(item, ast.Attribute):
            names.add(item.attr)
        elif isinstance(item, ast.Constant) and isinstance(item.value, str):
            names.add(item.value)
        stack.extend(ast.iter_child_nodes(item))
    return names


def test_every_method_has_a_src_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.rglob("*.py"))}
    unread = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(name in _method_reads(other, skip=node)
                           for other in trees.values()):
                    unread.add(f"{module}.{cls.name}.{name}")
    assert not unread, sorted(unread)


def _functions():
    """Every function and method the package's modules define, with the
    functions under ``lru_cache`` and the methods under ``classmethod``,
    ``staticmethod`` and ``property``."""
    for module in _modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for member in members:
                member = getattr(member, "__func__",
                                 getattr(member, "fget", member))
                if inspect.isfunction(inspect.unwrap(member)):
                    yield member


def test_annotations_resolve():
    # an annotation names an object its module can reach: a record class
    # of a module imported lazily is named through the package
    unresolved = []
    for func in _functions():
        try:
            typing.get_type_hints(func)
        except NameError as exc:
            unresolved.append(f"{func.__module__}.{func.__qualname__}: {exc}")
    assert not unresolved
