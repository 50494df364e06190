"""Import layering of the package: the region models hand calibration plain
point arrays, so they need not import it."""

import ast
from pathlib import Path

import qregions

PACKAGE = Path(qregions.__file__).parent


def package_imports(path: Path) -> set:
    """Names of the ``qregions`` modules that one source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("qregions."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not (module == "qregions" or module.startswith("qregions.")):
                    continue
                module = module.removeprefix("qregions").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_only_experiment_and_naive_qr_import_calibration():
    # naive_qr takes conformal_rank from calibration; experiment runs it.
    importers = sorted(path.stem for path in PACKAGE.glob("*.py")
                       if "calibration" in package_imports(path))
    assert importers == ["experiment", "naive_qr"]


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
