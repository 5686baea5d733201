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
    "omega_greedy": "paper construction; a suite check would move the golden hashes",
    "loop_smash_act": "paper construction; a suite check would move the golden hashes",
    "special_partial": "paper construction; a suite check would move the golden hashes",
    "module_to_dict": "the config writer, inverse of module_from_dict; only tests write configs",
    "matmul": "perfbench/tracer.py wraps it as linalg.matmul; tests/test_glmodules.py's dense reference",
    "a_unit": "validated one-term smash constructor; the Sampler builds its terms directly, and"
              " tests/test_sampling.py checks that build against this one",
    "a_tensor": "validated one-term smash constructor; the Sampler builds its terms directly, and"
                " tests/test_sampling.py checks that build against this one",
}

# Definition names that two or more src/rinehart definitions share.  The
# reachability guard counts reads by bare name, so it cannot tell such
# definitions apart; each entry says where every one of them is read.
SHARED = {
    "apply": "VectorField.apply; QPElement.apply delegates to it",
    "_key_parity": "the Sparse hook: Sparse.parity/even_odd call it on each subclass",
    "basis": "TensorVec.basis and VectorField.basis both build basis vectors in suites",
    "derive": "the module function; the SuperPoly.derive method delegates to it",
    "dotted": "Signature.dotted; the suites' Env.dotted wraps it",
    "from_field": "SmashElement.from_field in the centralizer suite; QPElement.from_field in"
                  " QPElement.of and the Sampler",
    "from_poly": "SmashElement.from_poly in the centralizer suite; QPElement.from_poly in"
                 " QPElement.of, QPElement.pair, the Sampler and the qp axioms",
    "is_zero": "Scalar and Sparse each test their own zero",
    "monomial": "Sampler.monomial draws one at random; SuperPoly.monomial builds one",
    "of": "Scalar.of and QPElement.of each coerce into their own type",
    "parity": "Sparse.parity; LoopElement.parity combines it",
    "phihat_parts": "QPStructure.phihat_parts, read by t_act and phi_operator; the qp suite's"
                    " self-test mutant overrides it",
    "scalar": "Sampler.scalar draws one at random; SuperPoly.scalar builds one",
    "wrap": "LoopElement.wrap and LoopTensor.wrap, both read by the Sampler",
    "zero": "Sparse.zero; MuVector.zero is the default shift of suites.build_env",
}


def _definitions(tree):
    """Top-level functions and classes, and their non-dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds[:2]) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub


def _reads(node):
    """How often each name is read as ``ast.Name`` or ``ast.Attribute``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
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


def test_every_library_name_is_reached():
    """Each definition in src/rinehart is read by library code other than
    the package exports and its own body, or is exempt with a reason."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    reads = Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            reads += _reads(tree)
    unreached = {
        node.name: name
        for name, tree in trees.items()
        for node in _definitions(tree)
        if reads[node.name] == _reads(node)[node.name]
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
        for node in _definitions(ast.parse(path.read_text(), str(path)))
    )
    shared = {name for name, k in counts.items() if k > 1}
    assert (sorted(shared - set(SHARED)), sorted(set(SHARED) - shared)) == ([], [])


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


def test_container_arithmetic_has_one_home():
    """Every container is a `Sparse`, so `+`, `-` and negation are defined
    in src/rinehart only by `Sparse` and the two value types `Scalar` and
    `WeightVector`."""
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
    assert owners == {"Sparse", "Scalar", "WeightVector"}
