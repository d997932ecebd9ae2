"""Source hygiene of the library modules.

Every name a module imports is used there.  An import that nothing in its
module reads is dead code, and a private helper imported across modules
shows up here once its last caller goes.  ``__init__`` is exempt: it
imports names to re-export them.  A module may also re-export an imported
name by listing it in its ``__all__``.

Tolerances follow one convention (see ``cstarlab.config``): a routine
that decides anything takes a whole :class:`Tolerances` as ``tol`` and
every library call to it passes one on.

Every residual checked against a tolerance goes through
``cstarlab.errors.check``, which names the identity, the residual and the
bound, and refuses a NaN residual that ``residual > bound`` would let pass.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

from cstarlab.algebra import StarAlgebra

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cstarlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used - exported_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


def definitions(tree):
    """``(function, is_method)`` for every function and method (the
    library has no static methods, so a method's first parameter is
    ``self`` or ``cls``)."""
    methods = {
        id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for f in cls.body if isinstance(f, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, id(node) in methods


def parameters(fn):
    """``(name, default)`` pairs of every parameter, default None if absent."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
    pairs = list(zip(positional, defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))
    return [(arg.arg, default) for arg, default in pairs]


TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def tol_positions():
    """``{name: index}`` of the ``tol`` parameter (``self``/``cls`` not
    counted) of every library function and method taking one."""
    found = {}
    for tree in TREES.values():
        for fn, is_method in definitions(tree):
            names = [name for name, _ in parameters(fn)][int(is_method):]
            if "tol" in names:
                found.setdefault(fn.name, set()).add(names.index("tol"))
    return found


def test_tolerances_are_passed_whole():
    """No ``tol_*`` float knobs; ``tol`` defaults to ``DEFAULT_TOL`` or to
    nothing; no function body reads ``DEFAULT_TOL`` except the CLI's
    starting value; every library call to a routine taking ``tol`` passes
    it."""
    positions = tol_positions()
    problems = []
    for module, tree in TREES.items():
        for fn, _ in definitions(tree):
            where = f"{module}.{fn.name}"
            for name, default in parameters(fn):
                if name.startswith("tol_"):
                    problems.append(f"{where} takes {name}")
                if name == "tol" and default is not None and not (
                    isinstance(default, ast.Name) and default.id == "DEFAULT_TOL"
                ):
                    problems.append(f"{where} defaults tol to {ast.unparse(default)}")
            if (module, fn.name) != ("cli", "_resolve_tol"):
                for node in ast.walk(ast.Module(body=fn.body, type_ignores=[])):
                    if isinstance(node, ast.Name) and node.id == "DEFAULT_TOL":
                        problems.append(f"{where} reads DEFAULT_TOL")
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in positions:
                continue
            passed = any(k.arg == "tol" for k in call.keywords)
            if not passed and len(call.args) <= min(positions[name]):
                problems.append(f"{module} line {call.lineno}: {name}() without tol")
    assert not problems, "\n".join(problems)


def tol_derived(node, names):
    """Whether an expression reads ``tol.<field>`` or a local name bound to
    such an expression."""
    return any(
        isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "tol"
        or isinstance(n, ast.Name) and n.id in names
        for n in ast.walk(node)
    )


def residual_checks(fn):
    """Line numbers of the ``if`` statements in ``fn`` that raise because a
    quantity exceeds a tolerance-derived bound: ``residual > bound``, or
    ``value < threshold - slack`` with a tolerance-derived ``slack``.  A
    refusal of a quantity at or below a tolerance (a zero projection, a cut
    inside the spectrum) is not a residual check and is not matched."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and tol_derived(node.value, names):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.If) or not any(
            isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)
        ):
            continue
        for cmp in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
            for op, right in zip(cmp.ops, cmp.comparators):
                if isinstance(op, ast.Gt) and tol_derived(right, names) or (
                    isinstance(op, ast.Lt) and isinstance(right, ast.BinOp)
                    and isinstance(right.op, ast.Sub) and tol_derived(right.right, names)
                ):
                    found.append(node.lineno)
    return found


def test_residual_checks_go_through_check():
    """No ``if residual > bound: raise`` blocks: each such comparison is a
    call to ``errors.check`` instead."""
    sites = [
        f"{module} line {line} ({fn.name})"
        for module, tree in TREES.items()
        for fn, _ in definitions(tree)
        for line in sorted(set(residual_checks(fn)))
    ]
    assert not sites, "raise through errors.check instead:\n" + "\n".join(sites)


def test_benchmark_traced_names_resolve():
    """The benchmark's tracer (``perfbench/tracing.py``) rebinds each name
    in its ``TRACED`` list and stops at the first it cannot find, and it
    rewraps ``StarAlgebra.from_span`` as a classmethod.  Loading the file
    by path, without importing the benchmark package, keeps a rename or
    deletion in the library from passing here and failing only there."""
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.TRACED:
        mod_name, _, attr = name.partition(".")
        owner = importlib.import_module("cstarlab." + mod_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, leaf, None)):
            missing.append(name)
    assert not missing, f"perfbench/tracing.py traces missing names {missing}"
    assert isinstance(inspect.getattr_static(StarAlgebra, "from_span"), classmethod)


# The fixed-point closure engine that algebras and right modules no longer
# use, the probe that found an algebra's center before it was read off the
# block decomposition, the spanning family a TRO no longer keeps, and the
# writer of an algebra's dense basis beside its blocks, which are now the
# algebra
RETIRED = ("close_span", "_closed_span_family", "_family_draw", "_FAMILY_SEED", "saturate",
           "central_projections", "random_self_adjoint", "_PROBE_SEED", "_block_family",
           "_block_algebra", "spectral_clusters", "_clusters", "_tro_blocks")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_defines_or_binds_a_retired_name(path):
    """No library module defines, imports or otherwise binds a retired
    name.  This stands in for the route guards that refused those names
    wherever a module bound them, which would pass vacuously once no
    module does.  A dataclass field binds an attribute of its instances,
    not a name of the module: ``BlockDecomposition.central_projections``
    is data, not the retired function."""
    stem = "" if path.stem == "__init__" else "." + path.stem
    module = importlib.import_module("cstarlab" + stem)
    tree = ast.parse(path.read_text())
    fields = {id(stmt.target) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
    named = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and id(node) not in fields}
    bound = named | set(imported_names(tree)) | {fn.name for fn, _ in definitions(tree)}
    found = sorted(name for name in RETIRED if name in bound or hasattr(module, name))
    assert not found, f"{path.name} binds retired names {found}"
