"""Import layering of the package: the region models hand calibration plain
point arrays, so they need not import it, only the experiment driver and
the data loader touch files, every public name of the package has a
caller in the package or the benchmark, and so does every defaulted
parameter and every stored attribute. Arrays are shaped only where they
enter the package, and only the nets' dtype constant names a narrower
float than float64."""

import ast
import importlib
import inspect
import math
from pathlib import Path

import qregions
from linetrace import exception_classes
from test_settings_budget import settable_values

PACKAGE = Path(qregions.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Public names that nothing in the package or the benchmark references,
# each with the reason it stays.
UNREFERENCED_ON_PURPOSE = {
    ("experiment", "run_experiment"): "the entry point of a run",
    ("numerics", "dqr_theoretical_coverage"):
        "the latent-coverage formula, until ROADMAP item 8 adopts or drops it",
}

# Defaulted parameters that no call in the package or the benchmark
# passes, each with the reason it stays.
UNPASSED_ON_PURPOSE = {}

# Functions that call a NumPy conversion (``CONVERSIONS``), each with the
# input it shapes. Everything else takes the float64 arrays its callers hold.
COERCED_ON_PURPOSE = {
    ("calibration", "_region"): "a provider's answer: any array-like of points",
    ("calibration", "calibrate"): "the area grid's bound tuples, averaged into the anchor",
    ("data", "Dataset.__post_init__"): "the feature and response matrices of a dataset",
    ("npdqr", "RegionExtractor.extract"): "one input row, as a region provider receives it",
    ("naive_qr", "NaiveModel.bounds"):
        "one input row of the area count, broadcast against the grid points",
}

# NumPy functions that turn a list, a scalar or an array of another shape
# or dtype into an array; ``np.array`` copies on purpose, so it is not one.
CONVERSIONS = {"asarray", "asanyarray", "ascontiguousarray",
               "atleast_1d", "atleast_2d", "atleast_3d"}

# Standard modules that read or write files.
FILE_MODULES = {"json", "pathlib", "csv", "pickle"}


def syntax_nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def imported_modules(path: Path) -> set:
    """Dotted names of the modules one source file imports, a relative
    import resolved into ``qregions``; ``from m import a`` names both
    ``m`` and ``m.a``, since ``a`` may be a module."""
    names = set()
    for node in syntax_nodes(path):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"qregions.{module}" if module else "qregions"
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def package_imports(path: Path) -> set:
    """Names of the ``qregions`` modules that one source file imports."""
    return {name.split(".")[1] for name in imported_modules(path)
            if name.startswith("qregions.")}


def file_access(path: Path) -> set:
    """The file modules one source file imports, plus ``open`` when it
    calls the builtin."""
    found = {name.split(".")[0] for name in imported_modules(path)} & FILE_MODULES
    if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "open" for node in syntax_nodes(path)):
        found.add("open")
    return found


def public_definitions(path: Path) -> set:
    """Names of the public module-level functions and classes of one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def package_bindings(tree: ast.Module, definitions: dict):
    """Local names bound by ``from`` imports: to package modules, and to
    ``(module, name)`` of names imported from package modules."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if source != "qregions" and not source.startswith("qregions."):
                    continue
                source = source.removeprefix("qregions").lstrip(".")
            for alias in node.names:
                if not source and alias.name in definitions:
                    modules[alias.asname or alias.name] = alias.name
                elif source in definitions:
                    names[alias.asname or alias.name] = (source, alias.name)
    return modules, names


def package_references(path: Path, module: str | None, definitions: dict) -> set:
    """``(module, name)`` of each package definition one file refers to: a
    name imported from a package module, ``m.name`` on a name bound to a
    package module, and, in the package module ``module`` itself, a use of
    its own name outside that name's own definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, imported = package_bindings(tree, definitions)
    found = set(imported.values())
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                found.add((bound[node.value.id], node.attr))
            elif (isinstance(node, ast.Name) and module is not None
                    and node.id in definitions[module] and node.id != own):
                found.add((module, node.id))
    return found


def scopes(tree: ast.Module) -> list:
    """``(qualname, node)`` of each module-level statement, with a class
    split into its members, named ``Class.member``."""
    found = []
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            found += [(f"{statement.name}.{getattr(member, 'name', '')}", member)
                      for member in statement.body]
        else:
            found.append((getattr(statement, "name", ""), statement))
    return found


def array_conversions(path: Path, module: str) -> set:
    """``(module, qualname)`` of each function or method of one file that
    calls one of ``CONVERSIONS`` as ``np.`` or ``numpy.``, in its own body
    or a function nested in it."""
    return {(module, qualname)
            for qualname, scope in scopes(ast.parse(path.read_text(encoding="utf-8")))
            for node in ast.walk(scope)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in {"np", "numpy"}
            and node.func.attr in CONVERSIONS}


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(decorator, ast.Name) and decorator.id == "dataclass"
               or isinstance(decorator, ast.Call) and decorator.func.id == "dataclass"
               for decorator in node.decorator_list)


def stored_attributes(path: Path, module: str) -> set:
    """``(module, Class.name)`` of each attribute that a class of one file,
    not an exception class, stores: a ``self.name`` assignment target in
    any of its methods, and an annotated field of a dataclass."""
    found = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exceptions = exception_classes(tree)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name in exceptions:
            continue
        names = {target.attr for target in ast.walk(node)
                 if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                 and isinstance(target.value, ast.Name) and target.value.id == "self"}
        if is_dataclass(node):
            names |= {field.target.id for field in node.body
                      if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)}
        found |= {(module, f"{node.name}.{name}") for name in names}
    return found


def attribute_loads(path: Path) -> set:
    """Names read as ``anything.name`` in one file."""
    return {node.attr for node in syntax_nodes(path)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def call_sites(path: Path, module: str | None, definitions: dict) -> list:
    """``(callee, positional, keywords, scope)`` of each call in one file.

    ``callee`` is ``(module, name)`` for a package function or class, a
    name resolved as ``package_references`` resolves it, and ``(None,
    name)`` for any other ``x.name(...)``, a method matched by its name.
    ``positional`` counts the positional arguments (infinite with a
    ``*``), ``keywords`` holds the keyword names (None for a ``**``), and
    ``scope`` is ``(module, qualname)`` of the module-level function or
    method the call lies in.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, imported = package_bindings(tree, definitions)
    sites = []
    for qualname, scope in scopes(tree):
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                callee = imported[func.id]
            elif (isinstance(func, ast.Name) and module is not None
                    and func.id in definitions[module]):
                callee = (module, func.id)
            elif isinstance(func, ast.Attribute):
                owner = func.value
                is_module = isinstance(owner, ast.Name) and owner.id in bound
                callee = (bound[owner.id] if is_module else None, func.attr)
            else:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            sites.append((callee, math.inf if starred else len(node.args),
                          {keyword.arg for keyword in node.keywords}, (module, qualname)))
    return sites


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # A parameter that only tests set is a second way to do something, as
    # a public name only tests call is: it becomes a module constant.
    definitions = {path.stem: public_definitions(path) for path in PACKAGE.glob("*.py")}
    sites = []
    for path in PACKAGE.glob("*.py"):
        sites += call_sites(path, path.stem, definitions)
    for path in BENCH.glob("*.py"):
        if not path.stem.startswith("test_"):
            sites += call_sites(path, None, definitions)
    unpassed = set()
    for value in settable_values():
        if not value.endswith(")"):
            continue  # a dataclass field
        owner, name = value[:-1].split("(")
        module, *qualname = owner.split(".")
        function = importlib.import_module(f"qregions.{module}")
        for part in qualname:
            function = getattr(function, part)
        parameters = list(inspect.signature(function).parameters.values())
        if len(qualname) == 2:  # a method: the call site does not pass self
            parameters = parameters[1:]
            callee = (module, qualname[0]) if qualname[1] == "__init__" else (None, qualname[1])
        else:
            callee = (module, qualname[0])
        (index,) = [i for i, p in enumerate(parameters) if p.name == name]
        if parameters[index].kind is inspect.Parameter.KEYWORD_ONLY:
            index = math.inf
        own = (module, ".".join(qualname))
        if not any(site == callee and scope != own
                   and (name in keywords or None in keywords or index < positional)
                   for site, positional, keywords, scope in sites):
            unpassed.add(value)
    assert sorted(unpassed) == sorted(UNPASSED_ON_PURPOSE)


def test_call_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import npdqr as dqr\n"
                      "from .cvae import fit as fit_cvae\n"
                      "def fit(a, b=1):\n"
                      "    return fit(a, b) + dqr.fit(x, pool=2) + fit_cvae(*rows)\n"
                      "class Model:\n"
                      "    def uniform(self, size=None):\n"
                      "        return self._gen.uniform(size=size)\n"
                      "def caller():\n"
                      "    return Model(**kw).uniform(3)\n")
    definitions = {"npdqr": {"fit"}, "cvae": {"fit"}, "probe": {"fit", "Model", "caller"}}
    assert sorted(call_sites(source, "probe", definitions), key=str) == sorted([
        (("probe", "fit"), 2, set(), ("probe", "fit")),
        (("npdqr", "fit"), 1, {"pool"}, ("probe", "fit")),
        (("cvae", "fit"), math.inf, set(), ("probe", "fit")),
        ((None, "uniform"), 0, {"size"}, ("probe", "Model.uniform")),
        (("probe", "Model"), 0, {None}, ("probe", "caller")),
        ((None, "uniform"), 1, set(), ("probe", "caller"))], key=str)


def test_every_public_name_has_a_caller_outside_the_tests():
    # A helper that only tests reach is a second way to do something, so
    # it goes, or it stays in UNREFERENCED_ON_PURPOSE with its reason.
    definitions = {path.stem: public_definitions(path) for path in PACKAGE.glob("*.py")}
    bench_files = sorted(BENCH.glob("*.py"))
    assert bench_files, f"no benchmark sources under {BENCH}"
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        referenced |= package_references(path, path.stem, definitions)
    for path in bench_files:
        referenced |= package_references(path, None, definitions)
    unreferenced = {(module, name) for module, names in definitions.items()
                    for name in names} - referenced
    assert sorted(unreferenced) == sorted(UNREFERENCED_ON_PURPOSE)


def test_reference_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import npdqr as dqr\n"
                      "from qregions import experiment\n"
                      "from .nn import init_mlp\n"
                      "from qregions.regions import area as count\n"
                      "def helper():\n"
                      "    return helper() + dqr.fit + experiment.prepare\n"
                      "def caller():\n"
                      "    return Model\n"
                      "class Model:\n"
                      "    def copy(self):\n"
                      "        return Model\n")
    definitions = {"npdqr": {"fit"}, "experiment": {"prepare"}, "nn": {"init_mlp"},
                   "regions": {"area"}, "probe": {"helper", "caller", "Model"}}
    assert public_definitions(source) == {"helper", "caller", "Model"}
    assert package_references(source, "probe", definitions) == {
        ("npdqr", "fit"), ("experiment", "prepare"), ("nn", "init_mlp"),
        ("regions", "area"), ("probe", "Model")}


def test_every_stored_attribute_is_read():
    # An attribute that nothing reads is a second copy of state that only
    # its constructor keeps consistent. The check goes by name, so it
    # cannot tell two classes' ``alpha`` apart: it catches a stored name
    # that no code of the package or the benchmark reads on any object,
    # not one read only on another class.
    stored, loaded = set(), set()
    for path in PACKAGE.glob("*.py"):
        stored |= stored_attributes(path, path.stem)
        loaded |= attribute_loads(path)
    for path in BENCH.glob("*.py"):
        if not path.stem.startswith("test_"):
            loaded |= attribute_loads(path)
    assert stored, f"no stored attributes found under {PACKAGE}"
    assert sorted(attr for attr in stored if attr[1].split(".")[1] not in loaded) == []


def test_attribute_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from dataclasses import dataclass\n"
                      "@dataclass(frozen=True)\n"
                      "class Config:\n"
                      "    rate: float = 1e-3\n"
                      "    LIMIT = 3\n"
                      "@dataclass\n"
                      "class Row:\n"
                      "    values: list\n"
                      "class Model:\n"
                      "    def __init__(self, net):\n"
                      "        self.net = net\n"
                      "        self.count: int = 0\n"
                      "        self.low, self.high = net.bounds\n"
                      "        self.net.cache[0] = None\n"
                      "    def step(self):\n"
                      "        self.count += 1\n"
                      "        return self.net.size, other.width\n"
                      "class FitError(ValueError):\n"
                      "    def __init__(self, epoch):\n"
                      "        self.epoch = epoch\n"
                      "class RowError(FitError):\n"
                      "    def __init__(self, row):\n"
                      "        self.row = row\n")
    assert stored_attributes(source, "probe") == {
        ("probe", "Config.rate"), ("probe", "Row.values"), ("probe", "Model.net"),
        ("probe", "Model.count"), ("probe", "Model.low"), ("probe", "Model.high")}
    assert attribute_loads(source) == {"bounds", "net", "cache", "size", "width"}


def test_arrays_are_shaped_only_at_named_boundaries():
    # The dataset, a provider's answer and the single input rows that
    # providers and the naive area count receive are shaped where they
    # enter; a conversion anywhere else is a second input format (a list,
    # a 1-D row) that the line trace cannot see, since it shares its line
    # with the path every run takes.
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= array_conversions(path, path.stem)
    assert sorted(found) == sorted(COERCED_ON_PURPOSE)


def test_conversion_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\n"
                      "import numpy\n"
                      "def load(a):\n"
                      "    return np.asarray(a, dtype=float)\n"
                      "class Model:\n"
                      "    def rows(self, x):\n"
                      "        def inner():\n"
                      "            return numpy.atleast_2d(x)\n"
                      "        return inner()\n"
                      "    def other(self, x):\n"
                      "        return np.array(x) + x.asarray() + x.atleast_1d()\n"
                      "def passed(f=np.asarray):\n"
                      "    return f\n"
                      "def any_array(x):\n"
                      "    return numpy.asanyarray(x)\n"
                      "def contiguous(x):\n"
                      "    return np.ascontiguousarray(x)\n"
                      "def row(x):\n"
                      "    return np.atleast_1d(x)\n"
                      "def volume(x):\n"
                      "    return numpy.atleast_3d(x)\n")
    assert array_conversions(source, "probe") == {
        ("probe", "load"), ("probe", "Model.rows"), ("probe", "any_array"),
        ("probe", "contiguous"), ("probe", "row"), ("probe", "volume")}


def test_only_experiment_and_naive_qr_import_calibration():
    # naive_qr takes conformal_rank from calibration; experiment runs it.
    importers = sorted(path.stem for path in PACKAGE.glob("*.py")
                       if "calibration" in package_imports(path))
    assert importers == ["experiment", "naive_qr"]


def test_only_nn_and_cvae_run_a_training_step():
    # A supervised net trains through nn.train; only the auto-encoder,
    # whose loss spans two nets, makes its training caches and runs
    # forward and backward itself.
    definitions = {path.stem: public_definitions(path) for path in PACKAGE.glob("*.py")}
    step = {("nn", "forward_cached"), ("nn", "backward"), ("nn", "training_cache")}
    users = sorted(path.stem for path in PACKAGE.glob("*.py")
                   if package_references(path, path.stem, definitions) & step)
    assert users == ["cvae", "nn"]


# Names of a single- or half-precision dtype, as attributes, names or strings.
NARROW_FLOATS = {"float32", "float16", "single", "half", "f4", "f2", "<f4", "<f2"}


def narrow_float_lines(path: Path) -> set:
    """Lines of one file that name a float32 or float16 dtype."""
    found = set()
    for node in syntax_nodes(path):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                else None)
        if name in NARROW_FLOATS:
            found.add((path.stem, node.lineno))
    return found


def test_only_the_nn_constant_names_a_narrow_float():
    # Every net takes its dtype from nn.NET_DTYPE; everything else is
    # float64, so a second float32 or float16 would be a second precision.
    declared = next(node.lineno for node in syntax_nodes(PACKAGE / "nn.py")
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["NET_DTYPE"])
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= narrow_float_lines(path)
    assert found == {("nn", declared)}


def test_narrow_float_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\n"
                      "from numpy import float16\n"
                      "a = np.zeros(3, dtype=np.float32)\n"
                      "b = a.astype('f4')\n"
                      "c = np.dtype('float16')\n"
                      "d = float16(1.0)\n"
                      "e = np.float64(1.0)  # float32 in a comment\n"
                      "f = 'a float32 in prose'\n")
    assert narrow_float_lines(source) == {("probe", 3), ("probe", 4), ("probe", 5),
                                          ("probe", 6)}


def test_only_experiment_and_data_touch_files():
    # experiment writes the run directory and data reads CSV input; a
    # model lives in memory and is rebuilt from its config and seed.
    touching = {path.stem: sorted(file_access(path)) for path in PACKAGE.glob("*.py")}
    assert {stem: found for stem, found in touching.items() if found} == {
        "data": ["csv", "open"], "experiment": ["json", "pathlib"]}


def test_import_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .calibration import calibrate\n"
                      "from . import npdqr, stdqr\n"
                      "from qregions.regions import Grid\n"
                      "from qregions import cvae\n"
                      "import qregions.metrics\n"
                      "import numpy\n"
                      "from dataclasses import dataclass\n")
    assert package_imports(source) == {"calibration", "npdqr", "stdqr", "regions",
                                       "cvae", "metrics"}


def test_file_access_forms_are_recognized(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import json\n"
                      "import os.path\n"
                      "from pathlib import Path\n"
                      "import pickle as pkl\n"
                      "with open('x') as fh:\n"
                      "    pass\n"
                      "np.load(fh.open)\n")
    assert file_access(source) == {"json", "pathlib", "pickle", "open"}
    source.write_text("from . import csv_tools\nfrom .data import load_csv\n")
    assert file_access(source) == set()
