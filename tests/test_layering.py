"""Import layering of the package: the region models hand calibration plain
point arrays, so they need not import it, and only the experiment driver
and the data loader touch files."""

import ast
from pathlib import Path

import qregions

PACKAGE = Path(qregions.__file__).parent

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


def test_only_experiment_and_naive_qr_import_calibration():
    # naive_qr takes conformal_rank from calibration; experiment runs it.
    importers = sorted(path.stem for path in PACKAGE.glob("*.py")
                       if "calibration" in package_imports(path))
    assert importers == ["experiment", "naive_qr"]


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
