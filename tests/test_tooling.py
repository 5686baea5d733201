"""Repository-level guards."""

import ast
import pathlib
import sys
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rinehart"


def test_library_imports_only_the_standard_library():
    """rinehart has no runtime dependencies: every absolute import in
    src/rinehart names a standard-library module."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign


# Names that nothing in src/rinehart refers to, kept on purpose.
EXEMPT = {
    "solve": "perfbench/tracer.py wraps it as the linalg.solve span",
    "rref": "perfbench/tracer.py wraps it as the linalg.rref span; dense adapter over Echelon",
    "omega_extract": "perfbench/tracer.py wraps it as the tensorqp.omega_extract span;"
                     " the tests' oracle for omega_kernel",
    "module_to_dict": "the config writer, inverse of module_from_dict; only tests write configs",
    "matmul": "perfbench/tracer.py wraps it as linalg.matmul; tests/test_glmodules.py's dense reference",
}

# Definition names that two or more src/rinehart definitions share.  The
# reachability guard counts reads by bare name, so it cannot tell such
# definitions apart; each entry says where every one of them is read.
SHARED = {
    "apply": "VectorField.apply; QPElement.apply delegates to it",
    "_entry": "the Sparse key hook: Sparse.__init__ calls it on each subclass",
    "_key_parity": "the Sparse hook: Sparse.parity/even_odd call it on each subclass",
    "basis": "TensorVec.basis and VectorField.basis both build basis vectors in suites",
    "derive": "the module function; the SuperPoly.derive method delegates to it",
    "from_field": "SmashElement.from_field in tensorqp.loop_g_act and the centralizer suite;"
                  " QPElement.from_field in QPElement.of and the Sampler",
    "from_poly": "SmashElement.from_poly in tensorqp.loop_a_act and the centralizer suite;"
                 " QPElement.from_poly in QPElement.of, QPElement.pair, the Sampler and the"
                 " qp axioms",
    "monomial": "Sampler.monomial draws one at random; SuperPoly.monomial builds one",
    "of": "Scalar.of and QPElement.of each coerce into their own type",
    "phihat_parts": "QPStructure.phihat_parts, read by _smash_act, phi_images and"
                    " QPStructure.phihat; the qp suite's self-test mutant overrides it",
}


def _definitions(tree):
    """Top-level functions and classes, and their non-dunder methods, as
    (node, is_method) pairs."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds[:2]) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub, True


def _reads(node, kinds=(ast.Name, ast.Attribute)):
    """How often each name is read as one of ``kinds``, ``ast.Name`` or
    ``ast.Attribute``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, kinds)
    )


def test_import_loads_no_dataclasses_or_inspect():
    """Every run compiles src/ on start unless bytecode is cached, so the
    import path stays lean: importing the package and its suites loads
    neither `dataclasses` nor the `inspect` it pulls in (with `ast`, `dis`
    and `tokenize`).  -S keeps site-packages' own imports out."""
    import os
    import subprocess

    code = ("import rinehart, rinehart.suites, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# Decorators that register the definition they decorate, which is then
# reached through the registry instead of by name.
REGISTRARS = {
    "_suite": "suites._suite puts the suite into suites.SUITES, which run_suite reads",
}


def _registered(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in REGISTRARS
               for d in getattr(node, "decorator_list", ()))


def test_every_library_name_is_reached():
    """Each definition in src/rinehart is read by library code other than
    the package exports and its own body, is registered by a decorator in
    REGISTRARS, or is exempt with a reason.  A method or property counts
    as read only through an attribute (``obj.name``), so that a local
    variable of the same name does not keep it alive."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    library = [tree for name, tree in trees.items() if name != "__init__.py"]
    any_read, attribute_read = (ast.Name, ast.Attribute), (ast.Attribute,)
    reads = {kinds: sum((_reads(tree, kinds) for tree in library), Counter())
             for kinds in (any_read, attribute_read)}

    def unread(node, is_method):
        kinds = attribute_read if is_method else any_read
        return reads[kinds][node.name] == _reads(node, kinds)[node.name]

    unreached = {
        node.name: name
        for name, tree in trees.items()
        for node, is_method in _definitions(tree)
        if unread(node, is_method) and not _registered(node)
    }
    unexempt = sorted(f"{mod}: {name}" for name, mod in unreached.items()
                      if name not in EXEMPT)
    stale = sorted(set(EXEMPT) - set(unreached))
    assert (unexempt, stale) == ([], [])


def test_shared_definition_names_are_listed():
    """A definition name shared by two or more definitions hides each of
    them from the reachability guard, so SHARED lists every such name."""
    counts = Counter(
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node, _ in _definitions(ast.parse(path.read_text(), str(path)))
    )
    shared = {name for name, k in counts.items() if k > 1}
    assert (sorted(shared - set(SHARED)), sorted(set(SHARED) - shared)) == ([], [])


def _readers(module: str, name: str) -> list[str]:
    """The top-level definitions and class methods of ``module`` that read
    ``name``, as "f" or "Class.method"."""
    tree = ast.parse((SRC / module).read_text())
    readers = Counter()
    for node in tree.body:
        scopes = node.body if isinstance(node, ast.ClassDef) else [node]
        for scope in scopes:
            scope_name = getattr(scope, "name", "<module>")
            if scope is not node:
                scope_name = f"{node.name}.{scope_name}"
            readers[scope_name] += _reads(scope)[name]
    return sorted(+readers)


def test_only_the_structure_and_shen_act_call_the_psi_kernel():
    """The structure is the one actor on Ȧ ⊗ Ω: in tensorqp.py the ψ
    kernel `_twisted` is read only by QPStructure.psi_parts, which every ψ
    goes through, and by shen_act, the full-signature reference that the
    loop checks compare the loop actions with."""
    assert _readers("tensorqp.py", "_twisted") == ["QPStructure.psi_parts", "shen_act"]


def test_taylor_data_and_signed_sums_have_one_reader_each():
    """One implementation of each job: a coefficient's constant and
    degree-one Taylor data are read only by `superpoly._taylor01`, which
    filt_degree and theta_project call, and the four formatters join
    their signed terms only through `parser._signed_sum`."""
    readers = {name: [f"{path.name}: {reader}" for path in sorted(SRC.glob("*.py"))
                      for reader in _readers(path.name, name)]
               for name in ("_taylor01", "_signed_sum")}
    assert readers == {
        "_taylor01": ["smash.py: theta_project", "superpoly.py: filt_degree"],
        "_signed_sum": ["parser.py: format_element", "parser.py: format_gl_matrix",
                        "parser.py: format_smash", "parser.py: format_tensor"],
    }


def test_only_env_builds_the_kernel_suites_shared_state():
    """Env is the one owner of what the kernel suites share: in suites.py
    the kernel basis, the φ images, the induced module and θ's table are
    built only by Env's methods, so no suite builds them on a structure or
    a basis of its own."""
    readers = {name: _readers("suites.py", name)
               for name in ("omega_kernel", "phi_images", "induced_gl_module", "theta_table")}
    assert readers == {
        "omega_kernel": ["Env.kernel"],
        "phi_images": ["Env.images"],
        "induced_gl_module": ["Env.induced"],
        "theta_table": ["Env.theta"],
    }


def _annotation_names(tree):
    """Names read inside string annotations such as ``-> "SuperPoly"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                annotations.append(arg and arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in filter(None, annotations):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def test_every_import_is_read():
    """Each name a src/rinehart module imports is read by that module
    (``__init__.py`` re-exports, so it is left out)."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}"
                   for name in sorted(imported - read - _annotation_names(tree))]
    assert unused == []


def _tracer_tables():
    """SPANS and SCALAR_OPS of perfbench/tracer.py, read without running it."""
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    tables = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "SCALAR_OPS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["SPANS"], tables["SCALAR_OPS"]


def test_tracer_targets_resolve():
    """Every function and method that ``perfbench/run.py --trace 1`` wraps
    still exists under its name; a rename would otherwise break tracing
    with no Tier-1 test failing."""
    import importlib

    from rinehart.scalars import Scalar

    spans, scalar_ops = _tracer_tables()
    assert spans and scalar_ops
    missing = []
    for modname, attr, span in spans:
        mod = importlib.import_module(f"rinehart.{modname}")
        owner, _, name = attr.rpartition(".")
        if owner:  # the tracer replaces a method through vars(cls)[name]
            cls = getattr(mod, owner, None)
            found = cls is not None and callable(vars(cls).get(name))
        else:
            found = callable(getattr(mod, name, None))
        if not found:
            missing.append(span)
    missing += [f"Scalar.{m}" for m in scalar_ops if not callable(vars(Scalar).get(m))]
    assert missing == []


TRACED_KERNEL_RUN = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
from rinehart.suites import SuiteConfig, run_suite
code, _ = run_suite(SuiteConfig(1, 2, 2, 2, 0, ("phi", "annihilate", "iso")))
print(json.dumps([code, {name: rec[0] for name, rec in tracer.export()["spans"].items()}]))
"""


def test_tracer_spans_count_the_kernel_suites_calls():
    """Installed as ``perfbench/run.py --trace 1`` installs it, in a fresh
    interpreter, the tracer wraps every name that SPANS lists where the
    library calls it: on the kernel suites at (1,2) the spans of θ, ψ,
    t_act, the induced module and rank count calls, so a per-layer metric
    of these layers cannot read 0 because a caller moved past its span."""
    import json
    import os
    import subprocess

    root = SRC.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "perfbench"),
                                                       str(root / "src")]))
    out = subprocess.run([sys.executable, "-c", TRACED_KERNEL_RUN], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, calls = json.loads(out.splitlines()[-1])
    assert code == 0
    assert set(calls) >= {span for _, _, span in _tracer_tables()[0]}
    for span in ("tensorqp.theta_transport", "tensorqp.psi", "tensorqp.t_act",
                 "tensorqp.induced_gl_module", "linalg.rank"):
        assert calls[span] > 0, span


def test_plain_tag_has_two_homes():
    """The plain tag "dt" is named only where it is listed and derived
    (superpoly.py: `Signature.tags`, `derive`) and where a field stores
    it in the Euler basis (vectorfields.py: `euler_key` and the plain
    view).  Every other module reads the stored Euler and odd tags."""
    named = sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(isinstance(node, ast.Constant) and node.value == "dt"
               for node in ast.walk(ast.parse(path.read_text(), str(path))))
    )
    assert named == ["superpoly.py", "vectorfields.py"]


# Check results (`_result` entries) that suites.py builds outside the
# driver, keyed by the building function and the id expression.
RESULTS_OUTSIDE_THE_DRIVER = {
    ("run_suite", "f'{name}.error'"): "a suite that raised: its library fault under one id",
}


def test_suites_have_one_driver():
    """In suites.py only the driver `_check` seeds a suite's rng, builds
    its one `Sampler` and builds check results (`_result`), apart from
    the named exemptions above; only `_rng` builds a `Random`."""
    tree = ast.parse((SRC / "suites.py").read_text())
    calls = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("_rng", "Sampler", "_result", "Random"):
                    first = ast.unparse(node.args[0]) if node.args else None
                    calls.append((getattr(top, "name", None), name, first))
    owners = {name: {top for top, called, _ in calls if called == name}
              for name in ("_rng", "Sampler", "_result", "Random")}
    assert owners == {"_rng": {"_check"}, "Sampler": {"_check"},
                      "_result": {"_check", "run_suite"}, "Random": {"_rng"}}
    outside = {(top, first) for top, name, first in calls
               if name == "_result" and top != "_check"}
    assert outside == set(RESULTS_OUTSIDE_THE_DRIVER)


def test_container_arithmetic_has_one_home():
    """Every container is a `Sparse`, so `+`, `-` and negation are defined
    in src/rinehart only by `Sparse` and the value type `Scalar`."""
    ops = {"__add__", "__sub__", "__neg__"}
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {sub.name}
                elif isinstance(sub, ast.Assign):
                    names = {t.id for t in sub.targets if isinstance(t, ast.Name)}
                else:
                    continue
                if names & ops:
                    owners.add(node.name)
    assert owners == {"Sparse", "Scalar"}


def test_sparse_types_have_one_constructor():
    """`Sparse.__init__` is the one public constructor: no class that
    derives from `Sparse` in src/rinehart, directly or through another,
    defines `__init__`; a type states its keys in the `_entry` hook."""
    bases = {}
    inits = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if any(isinstance(sub, ast.FunctionDef) and sub.name == "__init__"
                       for sub in node.body):
                    inits.add(node.name)
    derived = set()
    while True:
        more = {name for name, bs in bases.items() if bs & (derived | {"Sparse"})}
        if more <= derived:
            break
        derived |= more
    assert {"SuperPoly", "VectorField", "QPElement", "SmashElement", "TensorVec",
            "GlMatrix"} <= derived
    assert sorted(derived & inits) == []
