"""The public names of src/cfperiod that no code in src/ reaches.

A module-level public function or class is reached when module-level code
names it (the CLI's ``if __name__ == "__main__"`` guard calls ``main``), or
when a reached definition names it: by its bare name inside its own module,
or in another module through ``from .module import name`` or
``module.name``.  What is left is dead or used only by tests, and must be
exactly the list under "Names used only by tests" in ROADMAP.md item 5, so a
new unreached name, or one that code starts to use again, fails here.  The
names that item lists as moved to tests/oracles.py must be defined there and
no longer in src/cfperiod, so a second implementation does not come back;
``places.growth_rows`` keeps one call of the integer routine _log_abs_real
at ARCH_DPS, the escalation of an undecided row, and the forward steps of
``LinRec.term`` read only its integer state and are its one stepping loop.
Every name a module in src/cfperiod imports must also be read there, so a
deletion does not leave its imports behind.  sympy and mpmath stay out of
``import cfperiod.cli``, both are imported inside function bodies only, and
mpmath only by qfield and places, never on the ``classify`` path nor on a
growth row's.
"""
import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cfperiod"


def _unreached_public_names() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defs, imported = {}, {}
    for mod, tree in trees.items():
        imported[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # from .m import name -> (m, name); from . import m -> (m, None)
                    imported[mod][alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module else (alias.name, None))

    def names(mod, node):
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if (mod, sub.id) in defs:
                    out.add((mod, sub.id))
                target = imported[mod].get(sub.id)
                if target and target[1]:
                    out.add(target)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imported[mod].get(sub.value.id)
                if target and target[1] is None:
                    out.add((target[0], sub.attr))
        return out

    todo = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                todo |= names(mod, node)
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo |= names(key[0], defs[key])
    return {f"{mod}.{name}" for mod, name in defs
            if (mod, name) not in reached and not name.startswith("_")}


def _roadmap_list(marker: str = "Names used only by tests") -> set[str]:
    """The `module.name` entries of the ROADMAP.md item 5 bullet that opens with marker."""
    lines = (ROOT / "ROADMAP.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line)
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.strip() or line.lstrip().startswith("- "):
            break
        block.append(line)
    modules = {p.stem for p in SRC.glob("*.py")}
    return {f"{m}.{n}" for m, n in re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", " ".join(block))
            if m in modules}


def test_unreached_names_are_the_roadmap_list():
    assert _unreached_public_names() == _roadmap_list()



def test_names_moved_to_the_oracles_left_src():
    import oracles

    moved = _roadmap_list("Moved to `tests/oracles.py`")
    assert moved
    for entry in sorted(moved):
        mod, name = entry.split(".")
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        assert name not in {node.name for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}, entry
        assert callable(getattr(oracles, name)), entry


def _function(mod: str, qualname: str) -> ast.FunctionDef:
    """The definition of `qualname` (a function, or Class.method) in src/cfperiod/mod.py."""
    node = ast.parse((SRC / f"{mod}.py").read_text())
    for part in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == part)
    return node


def test_growth_rows_and_terms_keep_one_route_each():
    """growth_rows reads each row at ROW_DPS, off log_abs at a finite place
    and off the integer routine _log_abs_real at a real one, and calls
    _log_abs_real at ARCH_DPS (its default) in one place, the escalation of
    an undecided row, never log_abs at ARCH_DPS; LinRec.term's forward steps read no QuadElem coefficient, only the
    integer state, so the field loop lives in the oracles alone.  LinRec.term
    has no other stepping loop and LinRec no _lo slot: a term with n < 0 is a
    forward term of the reversed recurrence, and the coefficients are read
    only where it is built."""
    calls = [node for node in ast.walk(_function("places", "growth_rows"))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("log_abs", "_log_abs_real")]
    row = [c for c in calls if len(c.args) == 3]
    assert all(getattr(c.args[2], "id", None) == "ROW_DPS" for c in row)
    assert sorted(c.func.id for c in row) == ["_log_abs_real", "log_abs"]
    arch = [c for c in calls if len(c.args) == 2 and not c.keywords]
    assert [c.func.id for c in arch] == ["_log_abs_real"] and len(calls) == 3
    term = _function("recurrence", "LinRec.term")
    forward = next(node for node in term.body if isinstance(node, ast.If)
                   and isinstance(node.test, ast.Compare)
                   and getattr(node.test.left, "attr", None) == "_hi")
    read = {node.attr for node in ast.walk(forward) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(forward)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    terms_read = [node for node in ast.walk(forward)
                  if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                  and getattr(node.value, "id", None) == "memo"]
    assert "_ints" in read and not read & {"coeffs", "initials"}
    assert "c" not in names and terms_read == []
    cls = _function("recurrence", "LinRec")
    assert "_lo" not in {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)}
    assert "_lo" not in {node.value for node in ast.walk(cls) if isinstance(node, ast.Constant)}
    assert not [node for node in ast.walk(term) if isinstance(node, ast.While)]
    assert len([node for node in ast.walk(term) if isinstance(node, ast.For)]) == 2
    build = next(node for node in ast.walk(term) if isinstance(node, ast.If)
                 and getattr(node.test, "left", None) is not None
                 and getattr(node.test.left, "attr", None) == "_back")
    assert [node.func.id for node in ast.walk(build) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)] == ["LinRec"]

    def coeffs_read(node):
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                and sub.attr == "coeffs"]
    assert coeffs_read(term) and coeffs_read(term) == coeffs_read(build)


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names an import binds in the module that no code there reads as a name.

    A name read only inside a quoted annotation would count as unused; no
    module in src/cfperiod quotes an imported name.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{name} (line {line})" for name, line in bound.items() if name not in used}


def test_src_imports_only_what_it_uses():
    unused = {p.name: _unused_imports(ast.parse(p.read_text()))
              for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_cli_import_loads_neither_sympy_nor_mpmath():
    # the cold start (ROADMAP item 3) rests on both imports staying lazy
    code = ("import sys, cfperiod.cli; "
            "print(sorted({'sympy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _importers(package: str) -> dict[str, set[str]]:
    """{module: names of the functions that import package} over src/cfperiod,
    after checking that no module imports it outside a function body."""
    importers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    if _imports(sub, package):
                        inside.add(sub)
                        importers.setdefault(path.stem, set()).add(fn.name)
        outside = [n.lineno for n in ast.walk(tree) if _imports(n, package) and n not in inside]
        assert outside == [], f"{path.name}: {package} imported outside a function"
    return importers


def test_sympy_is_imported_inside_functions_only():
    """Every sympy import in src/cfperiod sits in a function body, and two
    functions import it: the integer factorer and split_square's factorint."""
    assert {f"{mod}.{fn}" for mod, fns in _importers("sympy").items() for fn in fns} == {
        "polyalg._zz_factor", "qfield.split_square"}


def _callers(name: str) -> set[str]:
    """`module.function` for every function in src/cfperiod that calls name,
    bare or as an attribute."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.Call) and name in (
                            getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                        out.add(f"{path.stem}.{fn.name}")
    return out


def _polynomial_classes() -> set[str]:
    """`module.Class` for every class in src/cfperiod derived from _PolyBase."""
    return {f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", None) == "_PolyBase" for base in node.bases)}


def test_every_gcd_over_q_is_the_certified_integer_gcd():
    """One gcd algorithm in src/: the modular gcd _gcd_k, which KPoly.gcd
    takes over K and the certified integer gcd over Q, the function that
    multiplies its cofactors back; sympy's integer gcd is gone.  KPoly, the
    one polynomial class in src/, derives from no coefficient-generic base:
    _PolyBase, and Euclid on field coefficients with it, live in the
    oracles."""
    from cfperiod import polyalg

    assert not hasattr(polyalg, "_zz_gcd") and _callers("_zz_gcd") == set()
    assert not any("euclidtools" in p.read_text() for p in SRC.glob("*.py"))
    assert _polynomial_classes() == set()
    with_gcd = {f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(getattr(n, "name", None) == "gcd" for n in node.body)}
    assert with_gcd == {"kpoly.KPoly"}
    assert _callers("_gcd_k") == {"kpoly.gcd", "polyalg._zz_gcd_certified"}
    assert not any(isinstance(n, ast.While) for n in ast.walk(_function("kpoly", "KPoly.gcd")))


def test_polynomials_over_q_pass_as_primitive_integer_forms():
    """factor_q, _over_q and the over-Q degeneracy test take and return
    primitive integer forms, and no Fraction polynomial is left to convert:
    _over_q reads a form off a KPoly's integers, and _monic_from_ints is the
    one reader of a form as a (rational) KPoly, where field arithmetic or a
    report needs one: a Q-factor split over K, P_D and P_S, the P_S rows of
    the classifier's table and the recurrence of a degenerate input's parts."""
    names = {node.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not names & {"RatPoly", "Factorization", "primitive_integer_coeffs",
                        "to_ratpoly", "lift"}
    assert _callers("primitive_integer_coeffs") == set()
    assert _callers("_monic_from_ints") == {
        "polyalg._split_over_k", "polyalg.factor_k", "recurrence.diff_sum_parts",
        "recurrence.split_degenerate", "classifier._s_rows"}


def test_mpmath_is_imported_inside_functions_only():
    """Every mpmath import in src/cfperiod sits in a function body, and only
    qfield and places import it: real-place numerics live in places, whose
    root boxes read coefficients through qfield.to_mpf, image_tuple's mpf
    wrapper, and image_tuple takes sqrt(d) from one cached function.  No
    module behind ``classify`` imports it.  In places only the root boxes,
    the root table and log_abs, which builds the library API's mpf pair,
    import it: the growth rows, the limit estimate's points and
    arch_dominant_log read integers."""
    importers = _importers("mpmath")
    assert importers.keys() == {"qfield", "places"}
    assert importers["qfield"] == {"to_mpf", "image_tuple", "_sqrt_tuple"}
    assert importers["places"] == {"log_abs", "_certified_roots", "arch_dominant_bounds",
                                   "root_abs_table"}


def test_real_place_logs_come_from_the_integer_routine():
    """No module in src/cfperiod names mpmath's mpf_log: every log at a real
    place, log|alpha_1|_v included, comes from places' integer routine.
    places._log_abs_real reads x's integers, not qfield.image_tuple, which
    only to_mpf calls."""
    for path in sorted(SRC.glob("*.py")):
        names = {getattr(node, "id", None) or getattr(node, "attr", None) or
                 getattr(node, "name", None)
                 for node in ast.walk(ast.parse(path.read_text()))}
        assert "mpf_log" not in names, path.name
    body = {getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(_function("places", "_log_abs_real"))}
    assert "image_tuple" not in body
    assert _callers("image_tuple") == {"qfield.to_mpf"}


def test_qfield_and_places_load_mpmath_on_first_use():
    # importing either module loads no mpmath and computes no sqrt(d); the
    # first float image loads it and caches one sqrt(d) per (d, precision)
    code = ("import sys, cfperiod.qfield as q, cfperiod.places; "
            "print('mpmath' in sys.modules, q._sqrt_tuple.cache_info().currsize); "
            "q.to_mpf(q.quad(1, 1, 2), 30); q.to_mpf(q.quad(1, -1, 2), 30); "
            "print('mpmath' in sys.modules, q._sqrt_tuple.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["False 0", "True 1"]


def _imports(node, package: str) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == package for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package
