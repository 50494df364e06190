"""Span tracer that times the calls into each ``qregions`` layer from outside.

The package imports most functions with ``from`` imports, so one function
can be bound under several module names (``calibration.min_distances`` is
``regions.min_distances``, ``stdqr.fit_npdqr`` is ``npdqr.fit``).  The
tracer finds every binding of each target by identity and replaces all of
them, then puts the originals back when the ``with`` block ends.

Each span records its name, start, end and parent span and stays in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "qregions"

# Every ``ORACLE_STRIDE``-th call of a distance function is kept for the
# oracle check, up to ``ORACLE_MAX_SAMPLES`` per function.
ORACLE_STRIDE = 41
ORACLE_MAX_SAMPLES = 24


def _rows(array) -> int:
    return int(np.atleast_2d(np.asarray(array)).shape[0])


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read results afterwards."""

    # (span name, module, attribute).  ``Class.method`` targets are patched
    # on the class, which is their only binding.
    TARGETS = (
        ("data.gen_synthetic", "data", "gen_synthetic"),
        ("data.split", "data", "split"),
        ("data.zscore_fit_apply", "data", "zscore_fit_apply"),
        ("experiment.fit_and_calibrate", "experiment", "fit_and_calibrate"),
        ("experiment.evaluate_cell", "experiment", "evaluate_cell"),
        ("regions.min_distances", "regions", "min_distances"),
        ("regions.pairwise_nn", "regions", "pairwise_nn_distances"),
        ("calibration.calibrate", "calibration", "calibrate"),
        ("calibration.membership", "calibration", "CalibratedRule.membership"),
        ("npdqr.fit", "npdqr", "fit"),
        ("npdqr.thresholds", "npdqr", "NpdqrModel.thresholds"),
        ("npdqr.extract", "npdqr", "RegionExtractor.extract"),
        ("stdqr.fit", "stdqr", "fit"),
        ("stdqr.region", "stdqr", "StdqrModel.region"),
        ("cvae.fit", "cvae", "fit"),
        ("cvae.loss_and_grads", "cvae", "composite_loss_and_grads"),
        ("cvae.decode_batch", "cvae", "decode_batch"),
        ("nn.forward", "nn", "forward_cached"),
        ("nn.infer", "nn", "forward_batch"),
        ("nn.backward", "nn", "backward"),
        ("nn.adam", "nn", "adam_step"),
        ("nn.training_loop", "nn", "run_training_loop"),
        ("naive_qr.fit", "naive_qr", "fit"),
        ("naive_qr.calibrate", "naive_qr", "calibrate"),
        ("naive_qr.membership_flags", "naive_qr", "membership_flags"),
        ("metrics.kmeans", "metrics", "kmeans"),
        ("metrics.delta_coverage", "metrics", "delta_coverage"),
    )

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.child_time: list = []
        self.counts: Counter = Counter()
        self.nets: list = []
        self.samples: dict = {"min_distances": [], "pairwise_nn": []}
        self.bindings: dict = {}
        self._stack: list = []
        self._patches: list = []
        self._calibrating = False
        self._provider_inputs: set = set()
        self._calibration_sizes: dict = {}

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for span, module_name, attr in self.TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(span, original))
                self.bindings[span] = [f"{module_name}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            found = []
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
                        found.append(f"{module.__name__[len(PACKAGE) + 1:]}.{name}")
            self.bindings[span] = found
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def unwrapped_bindings(self) -> list:
        """Module attributes that still hold an original traced function."""
        originals = {id(original) for _, _, original in self._patches}
        left = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    left.append(f"{name}.{attr}")
        return left

    # -- spans ------------------------------------------------------------

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span == "nn.forward" and not _arg(args, kwargs, 2, "train_mode", False):
                # Eval-mode forward passes belong to the nn.infer span.
                return fn(*args, **kwargs)
            if span == "calibration.calibrate":
                args = (tracer._counting_provider(args[0]),) + args[1:]
                tracer._calibrating = True
            index = len(tracer.names)
            tracer.names.append(span)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(None)
            tracer.child_time.append(0.0)
            tracer._stack.append(index)
            start = perf_counter()
            tracer.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.ends[index] = end
                tracer._stack.pop()
                parent = tracer.parents[index]
                if parent >= 0:
                    tracer.child_time[parent] += end - start
                if span == "calibration.calibrate":
                    tracer._calibrating = False
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def durations(self) -> dict:
        """(total, self) seconds per span name."""
        total = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, child in zip(self.names, self.starts, self.ends,
                                           self.child_time):
            total[name] += end - start
            own[name] += end - start - child
        return {name: (total[name], own[name]) for name in total}

    def span_records(self) -> list:
        return [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]

    def _ancestor(self, suffix: str) -> str:
        for index in reversed(self._stack):
            if self.names[index].endswith(suffix):
                return self.names[index]
        return "unknown"

    # -- per-call hooks ---------------------------------------------------

    def _on_regions_min_distances(self, args, kwargs, result) -> None:
        points = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "points")))
        carrier = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "carrier")))
        self.counts["regions.min_distances.pairs"] += points.shape[0] * carrier.shape[0]
        self._sample("min_distances", (points, carrier), result)

    def _on_regions_pairwise_nn(self, args, kwargs, result) -> None:
        m = _rows(_arg(args, kwargs, 0, "points"))
        self.counts["regions.pairwise_nn.pairs"] += m * (m - 1)
        self._sample("pairwise_nn", (np.asarray(_arg(args, kwargs, 0, "points")),), result)

    def _sample(self, kind: str, inputs: tuple, result) -> None:
        self.counts[f"oracle.{kind}.seen"] += 1
        seen = self.counts[f"oracle.{kind}.seen"]
        bucket = self.samples[kind]
        if (seen - 1) % ORACLE_STRIDE == 0 and len(bucket) < ORACLE_MAX_SAMPLES:
            bucket.append(tuple(np.array(a, dtype=float) for a in inputs)
                          + (np.array(result, dtype=float),))

    def _on_npdqr_thresholds(self, args, kwargs, result) -> None:
        self.counts["npdqr.thresholds.rows"] += _rows(_arg(args, kwargs, 1, "x_rows"))

    def _on_npdqr_extract(self, args, kwargs, result) -> None:
        extractor = args[0]
        self.counts["npdqr.extract.kept"] += len(result)
        self.counts["npdqr.extract.lattice"] += extractor.points.shape[0]

    def _on_cvae_decode_batch(self, args, kwargs, result) -> None:
        self.counts["cvae.decode_batch.rows"] += _rows(result)

    def _on_nn_forward(self, args, kwargs, result) -> None:
        self.counts["nn.forward.rows"] += _rows(_arg(args, kwargs, 1, "x"))

    def _on_nn_infer(self, args, kwargs, result) -> None:
        self.counts["nn.infer.rows"] += _rows(_arg(args, kwargs, 1, "x"))

    def _on_nn_training_loop(self, args, kwargs, history) -> None:
        max_epochs = int(_arg(args, kwargs, 3, "max_epochs"))
        self.nets.append({
            "net": self._ancestor(".fit"),
            "epochs_run": history.epochs_run,
            "best_epoch": history.best_epoch,
            "best_val_loss": float(history.best_val_loss),
            "max_epochs": max_epochs,
            "hit_cap": history.epochs_run >= max_epochs,
        })

    def _counting_provider(self, provider):
        """Count the region provider's calls, distinct inputs, and the
        calibration inputs whose region is empty or has under 2 points."""
        tracer = self

        def counted(x, *args, **kwargs):
            region = provider(x, *args, **kwargs)
            key = np.asarray(x, dtype=float).tobytes()
            tracer.counts["calibration.provider_calls"] += 1
            tracer._provider_inputs.add(key)
            if tracer._calibrating:
                tracer._calibration_sizes[key] = len(region)
            return region

        return counted

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced run, in ``(value, unit)`` pairs."""
        spans = self.durations()
        calls = Counter(self.names)
        c = self.counts

        def total(name):
            return spans.get(name, (0.0, 0.0))[0]

        def own(name):
            return spans.get(name, (0.0, 0.0))[1]

        calibrate_s = total("calibration.calibrate") + total("naive_qr.calibrate")
        sizes = list(self._calibration_sizes.values())
        distinct = len(self._provider_inputs)
        lattice = c["npdqr.extract.lattice"]
        epochs = sum(net["epochs_run"] for net in self.nets)
        out = {
            "experiment.fit_s": (total("experiment.fit_and_calibrate") - calibrate_s, "s"),
            "experiment.calibrate_s": (calibrate_s, "s"),
            "experiment.evaluate_s": (total("experiment.evaluate_cell"), "s"),
        }
        for span in ("regions.min_distances", "regions.pairwise_nn"):
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.pairs"] = (c[f"{span}.pairs"], "count")
            out[f"{span}.self_s"] = (own(span), "s")
        out.update({
            "calibration.calibrate.self_s": (own("calibration.calibrate"), "s"),
            "calibration.membership.calls": (calls["calibration.membership"], "count"),
            "calibration.membership.self_s": (own("calibration.membership"), "s"),
            "calibration.provider_calls": (c["calibration.provider_calls"], "count"),
            "calibration.provider_calls_per_input": (
                c["calibration.provider_calls"] / distinct if distinct else 0.0, "ratio"),
            "calibration.empty_regions": (sum(1 for s in sizes if s == 0), "count"),
            "calibration.fallback_rows": (sum(1 for s in sizes if s < 2), "count"),
            "npdqr.thresholds.calls": (calls["npdqr.thresholds"], "count"),
            "npdqr.thresholds.rows": (c["npdqr.thresholds.rows"], "count"),
            "npdqr.thresholds.self_s": (own("npdqr.thresholds"), "s"),
            "npdqr.extract.calls": (calls["npdqr.extract"], "count"),
            "npdqr.extract.self_s": (own("npdqr.extract"), "s"),
            "npdqr.region_fill": (c["npdqr.extract.kept"] / lattice if lattice else 0.0,
                                  "ratio"),
            "stdqr.region.calls": (calls["stdqr.region"], "count"),
            "stdqr.region.self_s": (own("stdqr.region"), "s"),
            "cvae.loss_and_grads.calls": (calls["cvae.loss_and_grads"], "count"),
            "cvae.loss_and_grads.self_s": (own("cvae.loss_and_grads"), "s"),
            "cvae.decode_batch.calls": (calls["cvae.decode_batch"], "count"),
            "cvae.decode_batch.rows": (c["cvae.decode_batch.rows"], "count"),
            "cvae.decode_batch.self_s": (own("cvae.decode_batch"), "s"),
        })
        for span in ("nn.forward", "nn.infer"):
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.rows"] = (c[f"{span}.rows"], "count")
            out[f"{span}.self_s"] = (own(span), "s")
        for span in ("nn.backward", "nn.adam"):
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.self_s"] = (own(span), "s")
        out.update({
            "nn.epochs": (epochs, "count"),
            "nn.nets_at_cap": (sum(1 for net in self.nets if net["hit_cap"]), "count"),
            "nn.useful_epoch_ratio": (
                sum(net["best_epoch"] for net in self.nets) / epochs if epochs else 0.0,
                "ratio"),
            "naive_qr.fit_s": (total("naive_qr.fit"), "s"),
            "naive_qr.membership_flags.self_s": (own("naive_qr.membership_flags"), "s"),
            "metrics.kmeans.self_s": (own("metrics.kmeans"), "s"),
            "metrics.delta_coverage.self_s": (own("metrics.delta_coverage"), "s"),
            "data.self_s": (sum(own(s) for s in ("data.gen_synthetic", "data.split",
                                                 "data.zscore_fit_apply")), "s"),
        })
        return out
