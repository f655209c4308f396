"""Per-layer spans for the traced run.

``Tracer.install`` wraps each layer's public functions in every bellbox
module that binds them (module attributes and module-level registries),
plus the ``CMatrix``/``CVector``/``JointTable`` constructors.  A span is
opened on each call and closed on return; its self time is its duration
minus the time of the spans it caused.  Spans are folded into per-function
totals in memory as they close (a traced model-sweep makes about a million
of them), and nothing is written until the run ends.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

LAYERS = ("linalg", "tables", "bell", "hilbert", "models", "expfile", "report", "cli")

#: Classes whose construction is a span of its own, by layer.
CONSTRUCTORS = {"linalg": ("CMatrix", "CVector"), "tables": ("JointTable",)}


class Tracer:
    def __init__(self) -> None:
        #: "layer.name" -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: counters that are not spans, such as bytes read
        self.counts: dict[str, float] = {}
        self._open: list[float] = []  # child time of each open span
        self._restore: list[tuple] = []

    def wrap(self, fn, key: str, bytes_counter: str | None = None):
        """``fn`` as a span named ``key``; with ``bytes_counter``, the size
        of the file named by the first argument is added to that counter."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
                if open_spans:
                    open_spans[-1] += duration
                if bytes_counter is not None:
                    counts[bytes_counter] = counts.get(bytes_counter, 0) + os.stat(args[0]).st_size

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Wrap every imported bellbox layer; call before the traced work."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"bellbox.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    size = "expfile.bytes_read" if name == "read_experiment" else None
                    wrappers[obj] = self.wrap(obj, f"{layer}.{name}", size)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                self.patch(cls, "__init__", self.wrap(cls.__init__, f"{layer}.{cls_name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bellbox" and not mod_name.startswith("bellbox."):
                continue
            for name, obj in list(vars(module).items()):
                if _hashable(obj) and obj in wrappers:
                    self.patch(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _hashable(value) and value in wrappers:
                            self._restore.append((obj, key, value, True))
                            obj[key] = wrappers[value]

    def patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name), False))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original, is_item in reversed(self._restore):
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    def summary(self) -> dict:
        return {"stats": self.stats, "counts": self.counts}


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (for traced child processes)."""
    for key, (calls, incl, own) in part["stats"].items():
        stat = total["stats"].setdefault(key, [0, 0.0, 0.0])
        stat[0] += calls
        stat[1] += incl
        stat[2] += own
    for key, value in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + value
    return total


#: Mean inclusive time per call of these functions, in microseconds.
PER_CALL_US = {
    "hilbert.verify_us": ("hilbert.verify_model", "hilbert.verify_operator_model"),
    "hilbert.operator_from_measurement_us": ("hilbert.operator_from_measurement",),
    "hilbert.born_probabilities_us": ("hilbert.born_probabilities",),
    "models.build_us": ("models.vessels_model", "models.vessels_alternative_model", "models.animal_acts_model"),
    "models.basis_synthesis_us": ("models.basis_from_probabilities",),
    "expfile.read_us": ("expfile.read_experiment",),
    "expfile.write_us": ("expfile.write_experiment",),
    "report.build_us": ("report.build_report",),
    "report.render_machine_us": ("report.render_machine",),
    "report.render_text_us": ("report.render_text",),
}

#: Calls per op of these functions or constructors.
PER_OP_CALLS = {
    "linalg.cmatrix_inits": "linalg.CMatrix",
    "linalg.cvector_inits": "linalg.CVector",
    "tables.jointtable_inits": "tables.JointTable",
    "bell.chsh_per_op": "bell.chsh",
    "tables.marginal_law_per_op": "tables.marginal_law_report",
}

#: Inclusive time per op of command-line parsing.
PARSE_KEYS = ("cli.build_parser", "cli.parse_args")


def layer_metrics(summary: dict, ops: int) -> dict:
    """Per-layer metrics of a traced segment of ``ops`` operations."""
    stats = summary["stats"]
    out = {}
    for layer in LAYERS:
        keys = [k for k in stats if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(stats[k][0] for k in keys) / ops, "calls/op")
        out[f"{layer}.self_ms"] = (sum(stats[k][2] for k in keys) * 1e3 / ops, "ms/op")
    for name, key in PER_OP_CALLS.items():
        out[name] = (stats.get(key, [0])[0] / ops, "calls/op")
    for name, keys in PER_CALL_US.items():
        calls = sum(stats.get(k, [0, 0.0])[0] for k in keys)
        total = sum(stats.get(k, [0, 0.0])[1] for k in keys)
        out[name] = (total * 1e6 / calls if calls else 0.0, "us")
    out["expfile.bytes_read"] = (summary["counts"].get("expfile.bytes_read", 0) / ops, "bytes/op")
    parse = sum(stats.get(k, [0, 0.0])[1] for k in PARSE_KEYS)
    out["cli.parse_ms"] = (parse * 1e3 / ops, "ms/op")
    return out
