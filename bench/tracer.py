"""Layer tracer: spans around qflearn's public functions, recorded from outside.

The package imports functions by name (`from .channels import propagate`), so
one function object is bound in several module namespaces. The tracer wraps
each listed function once and installs the wrapper at every `qflearn.*`
module attribute bound to the original object, plus the one classmethod
(`SampledNlpnDetector.fit`). Leaving the context restores every binding.

Spans live in flat arrays (name id, start, end, parent index) until the run
ends. Calls run on one thread and nest strictly, so the time a span's
children cover is the sum of their durations, and self time is the duration
minus that sum.
"""

import functools
import os
import sys
import time
from array import array

import numpy as np


def _rows(counts, args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    counts["neuralnet.forward.rows"] += x.shape[0] if x.ndim == 2 else 1


def _saved_bytes(counts, args, kwargs, result):
    counts["neuralnet.save_network.bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _channel_symbols(counts, args, kwargs, result):
    counts["channels.propagate.symbols"] += np.size(result)


def _flipped_bits(counts, args, kwargs, result):
    sent = np.asarray(args[0] if args else kwargs["bits"], dtype=np.uint8)
    counts["channels.bsc.bits"] += sent.size
    counts["channels.bsc.flipped_bits"] += int(np.count_nonzero(sent != result))


def _feedback_stats(counts, args, kwargs, result):
    counts["feedback.feedback_roundtrip.degenerate"] += int(result.stats.degenerate)
    counts["feedback.feedback_roundtrip.clipped"] += result.stats.clip_count


def _ser_symbols(counts, args, kwargs, result):
    counts["evaluation.estimate_ser.symbols"] += result.num_symbols


# (span name, defining module, attribute path, counter or None). The span
# name is the layer the function is reported under; `cli.write_metrics_csv`
# is defined in `training` but reached through the name `cli` imports.
TRACED = (
    ("neuralnet.forward", "qflearn.neuralnet", "forward", _rows),
    ("neuralnet.backward", "qflearn.neuralnet", "backward", None),
    ("neuralnet.adam_step", "qflearn.neuralnet", "adam_step", None),
    ("neuralnet.save_network", "qflearn.neuralnet", "save_network", _saved_bytes),
    ("transceiver.transmit", "qflearn.transceiver", "transmit", None),
    ("transceiver.receive", "qflearn.transceiver", "receive", None),
    ("transceiver.receiver_gradient", "qflearn.transceiver", "receiver_gradient", None),
    ("transceiver.policy_gradient", "qflearn.transceiver", "policy_gradient", None),
    ("transceiver.perturb", "qflearn.transceiver", "perturb", None),
    ("transceiver.constellation_jacobian", "qflearn.transceiver", "constellation_jacobian", None),
    ("channels.propagate", "qflearn.channels", "propagate", _channel_symbols),
    ("channels.bsc", "qflearn.channels", "bsc", _flipped_bits),
    ("feedback.feedback_roundtrip", "qflearn.feedback", "feedback_roundtrip", _feedback_stats),
    ("feedback.bussgang_gain", "qflearn.feedback", "bussgang_gain", None),
    ("training.receiver_step", "qflearn.training", "receiver_step", None),
    ("training.transmitter_step", "qflearn.training", "transmitter_step", None),
    ("training.train", "qflearn.training", "train", None),
    ("evaluation.estimate_ser", "qflearn.evaluation", "estimate_ser", _ser_symbols),
    ("evaluation.collect_score_samples", "qflearn.evaluation", "collect_score_samples", None),
    ("evaluation.score_moments", "qflearn.evaluation", "score_moments", None),
    (
        "evaluation.verify_quantized_gradient_scaling",
        "qflearn.evaluation",
        "verify_quantized_gradient_scaling",
        None,
    ),
    (
        "evaluation.verify_bitflip_gradient_scaling",
        "qflearn.evaluation",
        "verify_bitflip_gradient_scaling",
        None,
    ),
    ("evaluation.detector_ser", "qflearn.evaluation", "detector_ser", None),
    ("evaluation.SampledNlpnDetector.fit", "qflearn.evaluation", "SampledNlpnDetector.fit", None),
    ("cli.main", "qflearn.cli", "main", None),
    ("cli.write_metrics_csv", "qflearn.training", "write_metrics_csv", None),
    ("rngstreams.substream", "qflearn.rngstreams", "substream", None),
)

COUNT_NAMES = (
    "neuralnet.forward.rows",
    "neuralnet.save_network.bytes",
    "channels.propagate.symbols",
    "channels.bsc.bits",
    "channels.bsc.flipped_bits",
    "feedback.feedback_roundtrip.degenerate",
    "feedback.feedback_roundtrip.clipped",
    "evaluation.estimate_ser.symbols",
)


def _package_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qflearn" or name.startswith("qflearn."))
    }


def package_bindings():
    """Every (namespace, attribute, object) of the loaded qflearn modules and
    their classes, for checking that a traced run left nothing patched."""
    out = {}
    for mod_name, mod in _package_modules().items():
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    out[(f"{mod_name}.{attr}", cattr)] = cvalue
    return out


class Tracer:
    """Context manager that records spans for the functions in TRACED."""

    def __init__(self):
        self.names = [name for name, _, _, _ in TRACED]
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []
        self._patched = []  # (owner, attribute, original) in patch order

    def _wrap(self, name_id, fn, counter):
        # Locals, not attribute lookups: the wrapper runs ~25,000 times per
        # training operation, and its cost is the tracing overhead.
        starts, ends, parents, name_ids, stack, counts = (
            self.starts,
            self.ends,
            self.parents,
            self.name_ids,
            self._stack,
            self.counts,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = _package_modules()
        try:
            for name_id, (_, mod_name, path, counter) in enumerate(TRACED):
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    # A classmethod: wrap the function under the descriptor.
                    owner = getattr(modules[mod_name], owner_name)
                    original = vars(owner)[attr]
                    wrapped = classmethod(self._wrap(name_id, original.__func__, counter))
                    setattr(owner, attr, wrapped)
                    self._patched.append((owner, attr, original))
                    continue
                original = getattr(modules[mod_name], attr)
                wrapped = self._wrap(name_id, original, counter)
                for mod in modules.values():
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, binding, wrapped)
                            self._patched.append((mod, binding, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @property
    def num_spans(self):
        return len(self.starts)

    def summary(self):
        """Per span name: (calls, total self seconds)."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        start = np.frombuffer(self.starts, dtype=np.float64)
        dur = np.frombuffer(self.ends, dtype=np.float64) - start
        parent = np.frombuffer(self.parents, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_s = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        totals = np.bincount(names, weights=self_s, minlength=len(self.names))
        return {name: (int(calls[i]), float(totals[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """Save every span: name table plus start, end and parent index arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )
