"""Every definition and every default parameter of the package is used inside it.

Code that only the tests call belongs in tests/ (see conftest.py).  The scans
parse each module of src/wavebox.  A definition counts as used when its name
appears as a name or attribute anywhere in the package's code; names in
comments and docstrings do not count, and dunder methods are exempt.  A
parameter with a default counts as used when some call inside the package,
matched by the callee's name, passes it by keyword or by position.  A
third scan keeps ``print`` calls to cli.py, a fourth keeps returned
integer literals (the exit codes) to cli.py too, a fifth keeps every
import at module level, a sixth keeps numpy's linalg and polynomial out of
the package, a seventh keeps the box out of the panel kernels, and an
eighth keeps ``runner`` out of the layers below the record loop.  The
last scan parses each module of tests/ and finds every name it imports
used in its code.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wavebox"

# The console-script entry point is called with no arguments by design.
ENTRY_POINT_DEFAULTS = {"cli.main(argv)"}


def _modules():
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))]


def test_no_definition_without_a_caller_in_the_package():
    defined, used = [], set()
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{stem}.{node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50
    assert [d for d in defined if d.split(".")[1] not in used] == []


def _defaulted_parameters(stem, tree):
    """(label, callee name, position or None, parameter name) per default.

    Methods count ``self``/``cls`` as position 0, so a call through an
    instance or class shifts positions by one; ``__init__`` is called
    through its class name.
    """
    classes = {id(f): c.name for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        owner = classes.get(id(node))
        shift = 1 if owner is not None else 0
        callee = owner if node.name == "__init__" else node.name
        label = f"{stem}.{callee}"
        for arg in positional[len(positional) - len(args.defaults):]:
            yield (f"{label}({arg.arg})", callee,
                   positional.index(arg) - shift, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg})", callee, None, arg.arg


def _passed(modules):
    """(callee name, position) and (callee name, keyword) of every call."""
    passed = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((name, i))
            passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return passed


def test_every_default_parameter_is_passed_in_the_package():
    modules = _modules()
    passed = _passed(modules)
    defaults = [d for stem, tree in modules
                for d in _defaulted_parameters(stem, tree)]
    assert len(defaults) >= 10
    unused = [label for label, callee, position, name in defaults
              if (callee, name) not in passed and (callee, position) not in passed
              and label not in ENTRY_POINT_DEFAULTS]
    assert unused == []


def test_only_the_command_line_prints():
    # The commands report through the ``wavebox`` logger; cli.main alone
    # decides where that goes and how much of it.
    printing = [f"{stem}:{node.lineno}" for stem, tree in _modules()
                if stem != "cli" for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert printing == []


def _int_literals(node):
    """The int literals an expression evaluates to as written: itself, a
    signed literal, or a branch of a conditional expression or of
    ``and``/``or``; signs are dropped."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [node.value]
    if isinstance(node, ast.UnaryOp):
        return _int_literals(node.operand)
    if isinstance(node, ast.IfExp):
        return _int_literals(node.body) + _int_literals(node.orelse)
    if isinstance(node, ast.BoolOp):
        return [v for value in node.values for v in _int_literals(value)]
    return []


def test_only_the_command_line_returns_exit_codes():
    # The commands return whether every check passed and raise ConfigError
    # for bad input; cli.main alone maps that to the exit codes 0 to 3.
    returned = {stem: sorted({v for node in ast.walk(tree)
                              if isinstance(node, ast.Return) and node.value
                              for v in _int_literals(node.value)})
                for stem, tree in _modules()}
    assert returned.pop("cli") == [0, 1, 2, 3]
    assert {stem: codes for stem, codes in returned.items() if codes} == {}


def test_no_import_inside_a_function():
    # ``import wavebox.cli`` loads every module of the package, which
    # perfbench's Tracer.install relies on.  Module-level blocks, such as
    # ``if TYPE_CHECKING:``, are not function bodies and stay allowed.
    lazy = sorted({f"{stem}:{node.lineno}" for stem, tree in _modules()
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert lazy == []


def _numpy_paths(tree):
    """(line, dotted path) of every attribute of ``np``/``numpy`` and every
    imported module or name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            yield node.lineno, f"numpy.{node.attr}"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names)


def test_no_module_uses_numpy_linalg_or_polynomial():
    # kernels.solve_dense factors through SciPy's LAPACK.  numpy's own, which
    # np.linalg and np.polynomial's eigensolvers call, would be a second
    # one: leggauss(16) alone set a simulate run's peak resident set.
    paths = [(stem, line, path) for stem, tree in _modules()
             for line, path in _numpy_paths(tree)]
    assert len(paths) > 100
    assert [f"{stem}:{line} {path}" for stem, line, path in paths
            if path.split(".")[:2] in (["numpy", "linalg"],
                                       ["numpy", "polynomial"])] == []


# The box's layout: the panel blocks of the surface and the walls, and the
# builder of the wall panels.
BOX_NAMES = {"surface_slice", "bottom_slice", "right_slice", "left_slice",
             "wall_mesh", "wall_panels_per_side"}


def _names(tree):
    """(line, name) of every name, attribute and imported name or module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, part) for part in (node.module or "").split("."))
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, part) for alias in node.names
                        for part in alias.name.split("."))


def test_the_panel_kernels_know_no_box():
    # kernels integrates over the panel blocks it is given: which panels
    # carry flux, where the walls are and the system's layout are bem's.
    # Outside geometry, only bem builds the wall panels.
    modules = dict(_modules())
    assert [f"kernels:{line} {name}" for line, name in _names(modules["kernels"])
            if name in BOX_NAMES | {"geometry"}] == []
    assert sorted(stem for stem, tree in modules.items() if stem != "geometry"
                  and any(name == "wall_mesh" for _, name in _names(tree))) == ["bem"]


def test_the_layers_below_the_record_loop_import_no_runner():
    # The run configuration is runner's: geometry, kernels, bem and
    # evolution take what they need as arguments, and import nothing of
    # runner, at module level or under ``if TYPE_CHECKING:``.  diagnostics,
    # which reads RunConfig's limits, imports it there.
    modules = dict(_modules())
    assert [f"{stem}:{line}" for stem in ("geometry", "kernels", "bem", "evolution")
            for line, name in _names(modules[stem]) if name == "runner"] == []
    assert any(name == "runner" for _, name in _names(modules["diagnostics"]))


def test_every_name_a_test_module_imports_is_used_in_it():
    # Names inside the scripts that some tests hand to a child interpreter
    # are string contents, so they do not count.
    imported, unused = 0, []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # ``import a.b`` binds ``a``
                    name = alias.asname or alias.name.split(".")[0]
                    imported += 1
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert imported > 100
    assert unused == []
