"""In-process workloads, run by ``run.py`` in a fresh process.

    python perfbench/worker.py --workload analyze-batch|model-sweep \\
        --seed N --seconds S --trace 0|1 --workdir DIR --result FILE [--setup-only]

Set-up is timed from before ``import bellbox`` until the first round (the
warm-up) has run, so import cost, input generation, file writing and the
warm-up all count.  The warm-up round's outputs go to the result file for
the oracle; every later op's output must equal the warm-up output of the
same op.  Only bellbox and the standard library are imported here, so the
peak resident set is bellbox's.
"""

from __future__ import annotations

import argparse
import array
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import corpus
from tracer import Tracer, layer_metrics

#: Every WRITE_EVERY-th op of analyze-batch also writes the experiment
#: back and re-reads it.
WRITE_EVERY = 4

#: Fewest measured ops of a plain run, so that p90 has ten samples above it.
MIN_SAMPLES = 100


class AnalyzeBatch:
    """read_experiment -> build_report -> render_machine + render_text over
    a seeded corpus; a share of ops also round-trips the file."""

    def __init__(self, seed: int, workdir: Path) -> None:
        from bellbox import expfile, report

        self.expfile, self.report = expfile, report
        entries = corpus.write_corpus(workdir, seed)
        random.Random(f"analyze-batch-order/{seed}").shuffle(entries)
        self.round = [
            (e["path"], str(workdir / f"roundtrip-{i}.json") if i % WRITE_EVERY == 0 else None)
            for i, e in enumerate(entries)
        ]

    def run(self, item):
        path, copy = item
        experiment, metadata = self.expfile.read_experiment(path)
        rep = self.report.build_report(experiment)
        machine = self.report.render_machine(rep)
        text = self.report.render_text(rep)
        same = None
        if copy is not None:
            self.expfile.write_experiment(copy, experiment, metadata)
            same = self.expfile.read_experiment(copy)[0] == experiment
        return machine, text, same

    def describe(self, item, output) -> dict:
        (path, copy), (machine, text, same) = item, output
        return {"path": path, "copy": copy, "machine": machine, "text": text, "same": same}


class ModelSweep:
    """Build constructions and verify each under both identifications: the
    vessel models at seeded phases, the animal-acts operator model, and
    models synthesized with basis_from_probabilities."""

    def __init__(self, seed: int, workdir: Path) -> None:
        from bellbox import hilbert, models, tables

        self.hilbert, self.models, self.tables = hilbert, models, tables
        inputs = corpus.model_inputs(seed)
        self.vessels_data = models.vessels_data().experiment
        self.animal_data = models.animal_acts_data().experiment
        self.synthesized = []
        for spec in inputs["synthesized"]:
            data = tables.Experiment.from_tables({
                tables.SettingPair.from_label(label): tables.normalize(values, tables.SettingPair.from_label(label))
                for label, values in spec["targets"].items()
            })
            self.synthesized.append((spec, data))
        self.round = []
        for alpha, beta in inputs["phases"]:
            self.round += [("vessels", alpha, beta), ("vessels-alt", alpha, beta)]
        self.round.append(("animal-acts",))
        self.round += [("synthesized", j) for j in range(len(self.synthesized))]

    def run(self, item):
        kind, hilbert, models = item[0], self.hilbert, self.models
        isos = (hilbert.CANONICAL_ISO, hilbert.SWAPPED_ISO)
        if kind in ("vessels", "vessels-alt"):
            build = models.vessels_model if kind == "vessels" else models.vessels_alternative_model
            model = build(item[1], item[2])
            return model, tuple(model.verify(self.vessels_data, iso=iso) for iso in isos)
        if kind == "animal-acts":
            model = models.animal_acts_model()
            return model, tuple(model.verify(self.animal_data, iso=iso) for iso in isos)
        spec, data = self.synthesized[item[1]]
        state = hilbert.StateVector.of(spec["amplitudes"], normalize=True)
        measurements = {
            pair: models.basis_from_probabilities(state, data.table(pair).values, pair)
            for pair in self.tables.PAIR_ORDER
        }
        verdicts = tuple(
            hilbert.verify_model(state, measurements, data, models.EXACT_MODEL_TOL, iso) for iso in isos
        )
        return (state, measurements), verdicts

    def describe(self, item, output) -> dict:
        kind = item[0]
        built, verdicts = output
        out = {"kind": kind, "verdicts": {v_iso: _verdict(v) for v_iso, v in zip(("canonical", "swapped"), verdicts)}}
        if kind in ("vessels", "vessels-alt"):
            out.update(alpha=item[1], beta=item[2], data=_tables(self.vessels_data))
            out.update(state=_cvec(built.state.vector), measurements=_measurements(built.measurements))
        elif kind == "animal-acts":
            out.update(data=_tables(self.animal_data), state=_cvec(built.state.vector))
            out["operators"] = {p.label: [_cvec(row) for row in m.rows] for p, m in built.operators.items()}
        else:
            spec, data = self.synthesized[item[1]]
            state, measurements = built
            out.update(targets=spec["targets"], data=_tables(data), state=_cvec(state.vector))
            out["measurements"] = _measurements(measurements)
        return out


def _cvec(values) -> list:
    return [[z.real, z.imag] for z in values]


def _tables(experiment) -> dict:
    return {t.pair.label: list(t.values) for t in experiment.tables}


def _measurements(measurements) -> dict:
    return {
        p.label: {"final_states": [_cvec(f) for f in m.final_states], "outcomes": list(m.outcomes)}
        for p, m in measurements.items()
    }


def _verdict(v) -> dict:
    return {
        "residual_kind": v.residual_kind,
        "residuals": {p.label: r for p, r in v.residuals.items()},
        "measurement_entangled": {p.label: f for p, f in v.measurement_entangled.items()},
        "state_entangled": v.state_entangled,
        "hermiticity_residuals": {p.label: r for p, r in v.hermiticity_residuals.items()},
        "chsh_from_model": v.chsh_from_model,
        "chsh_imag_residual": v.chsh_imag_residual,
        "tolerance": v.tolerance,
        "passed": v.passed,
    }


WORKLOADS = {"analyze-batch": AnalyzeBatch, "model-sweep": ModelSweep}


def measure(workload, reference, seconds: float, min_ops: int) -> dict:
    """Closed loop, one client: whole rounds until ``seconds`` have passed
    and at least ``min_ops`` ops have completed."""
    # samples in flat arrays, so that the peak resident set hardly grows
    # with the number of ops a run completes
    latencies, rounds, failed, wrong = array.array("d"), array.array("d"), 0, 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for item, expected in zip(workload.round, reference):
            t0 = time.perf_counter()
            try:
                output = workload.run(item)
            except Exception:  # an op that raises is counted and the run goes on
                if failed == 0:
                    traceback.print_exc()
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            if output != expected:
                wrong += 1
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    attempted = len(latencies) + failed
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "rounds": rounds, "latencies": latencies}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    reference = [workload.run(item) for item in workload.round]
    result = {"setup_s": time.perf_counter() - started}
    if not args.setup_only:
        result["warmup"] = [workload.describe(i, o) for i, o in zip(workload.round, reference)]
        if args.trace:
            plain = measure(workload, reference, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, reference, args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer.summary(), len(traced["latencies"]))
            result["plain_p50_ms"] = statistics.median(plain["latencies"]) * 1e3
            result["traced_p50_ms"] = statistics.median(traced["latencies"]) * 1e3
            runs = (plain, traced)
        else:
            runs = (measure(workload, reference, args.seconds, MIN_SAMPLES),)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            result["round_ops"] = len(workload.round)
            result.update({k: list(runs[0][k]) for k in ("latencies", "rounds")})
        result["attempted"] = sum(r["attempted"] for r in runs)
        result["failed"] = sum(r["failed"] for r in runs)
        result["wrong"] = sum(r["wrong"] for r in runs)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
