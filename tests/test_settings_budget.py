"""Budget of settable values in the public API: defaulted parameters of
public functions and methods (constructors included), plus dataclass
fields with a default. A new option has to raise the budget in its own
diff."""

import dataclasses
import importlib
import inspect
import pkgutil

import qregions
from qregions import npdqr

BUDGET = 27


def settable_values() -> list:
    """``module.name(param)`` or ``module.Class.field`` of each settable value."""
    found = []
    for info in pkgutil.iter_modules(qregions.__path__):
        module = importlib.import_module(f"qregions.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            prefix = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found += defaulted_parameters(prefix, obj)
            elif inspect.isclass(obj):
                found += settable_members(prefix, obj)
    return found


def defaulted_parameters(prefix: str, fn) -> list:
    return [f"{prefix}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def settable_members(prefix: str, cls) -> list:
    found = []
    if dataclasses.is_dataclass(cls):
        found += [f"{prefix}.{f.name}" for f in dataclasses.fields(cls)
                  if f.default is not dataclasses.MISSING
                  or f.default_factory is not dataclasses.MISSING]
    for name, member in vars(cls).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if not inspect.isfunction(member):
            continue
        # A dataclass's generated __init__ repeats its fields.
        if name == "__init__" and dataclasses.is_dataclass(cls):
            continue
        if name.startswith("_") and name != "__init__":
            continue
        found += defaulted_parameters(f"{prefix}.{name}", member)
    return found


def test_settable_values_stay_within_budget():
    values = settable_values()
    assert len(values) <= BUDGET, "\n".join(values)


def test_counter_sees_each_kind_of_setting(monkeypatch):
    # A private function of a package module is not counted; the same
    # function under a public name is.
    def probe(rows, out=None):
        return out

    probe.__module__ = npdqr.__name__
    monkeypatch.setattr(npdqr, "_probe", probe, raising=False)
    monkeypatch.setattr(npdqr, "probe", probe, raising=False)
    values = set(settable_values())
    assert {"nn.TrainConfig.learning_rate", "naive_qr.NaiveModel.__init__(offset)",
            "nn.forward_batch(cache)", "numerics.Rng.uniform(size)",
            "experiment.TrainingProfile.cvae_hidden", "npdqr.probe(out)"} <= values
    assert not any("_probe" in v or "TrainConfig.__init__" in v for v in values)
