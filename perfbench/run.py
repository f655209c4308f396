#!/usr/bin/env python3
"""bellbox benchmark.

    python3 perfbench/run.py --workload cli-oneshot|analyze-batch|model-sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the interpreter, the CPU count
and the bare-interpreter start-up times.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import corpus
import oracle
from tracer import LAYERS, layer_metrics, merge
from worker import MIN_SAMPLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable

WORKLOADS = ("cli-oneshot", "analyze-batch", "model-sweep")
FIXTURES = tuple(oracle.DATASETS)

#: Set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Fresh processes timing ``import bellbox.cli``; import_ms is their median.
IMPORT_PROBES = 24
#: Longest any one child process may take, in seconds.
CHILD_TIMEOUT = 150

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bellbox.cli\n"
    "print((time.perf_counter() - t0) * 1e3)\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, timeout=CHILD_TIMEOUT, env=None):
    """Run a process to its end; returns (seconds, exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env or child_env(), cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out: {argv}") from None
    return time.perf_counter() - start, proc.returncode, out.decode(), err.decode()


def latency_metrics(latencies: list[float], rounds: list[float], round_ops: int) -> dict:
    """Throughput is that of the median round, so that a few seconds of
    contention from outside the benchmark move it as little as they move
    the median op."""
    return {
        "ops_per_s": (round_ops / statistics.median(rounds), "op/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def import_probes(count: int, importtime: bool) -> tuple[list[float], dict]:
    """Fresh interpreters importing bellbox.cli: the wall time each measured
    of the import, and (with ``-X importtime``) each module's self time."""
    times, per_module = [], {m: [] for m in LAYERS}
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(count):
        _, code, out, err = run_child([PYTHON, *flags, "-c", IMPORT_PROBE])
        if code != 0:
            raise BenchError(f"import probe failed:\n{err}")
        times.append(float(out))
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("bellbox."):
                name = parts[2].removeprefix("bellbox.")
                if name in per_module:
                    per_module[name].append(int(parts[0]) / 1e3)
    return times, per_module


def import_layer_metrics(probes: int = 5) -> dict:
    _, per_module = import_probes(probes, importtime=True)
    return {f"import.{m}_ms": (statistics.median(v), "ms") for m, v in per_module.items()}


# ---------------------------------------------------------------------------
# cli-oneshot: one bellbox process per op
# ---------------------------------------------------------------------------


def cli_commands(seed: int, files: Path, out: Path) -> list[tuple[list[str], dict]]:
    """One round: (arguments after ``python -m bellbox.cli``, what to check)."""
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = corpus.cli_phases(seed, 4)

    def analyze(name, fmt):
        return ["--format", fmt, "analyze", str(files / f"{name}.json")], {"verb": "analyze", "data": name, "format": fmt}

    def model(name, fmt, iso, alpha=0.0, beta=0.0):
        argv = ["--format", fmt, "model", name, "--iso", iso]
        if name in ("vessels", "vessels-alt"):
            argv += ["--alpha", repr(alpha), "--beta", repr(beta)]
        data = "vessels" if name == "vessels-alt" else name
        return argv, {"verb": "model", "data": data, "format": fmt, "model": name, "iso": iso, "alpha": alpha, "beta": beta}

    return [
        analyze("animal-acts", "text"),
        analyze("animal-acts", "machine"),
        analyze("vessels", "machine"),
        analyze("vessels", "text"),
        analyze("vessels-separated", "machine"),
        model("animal-acts", "machine", "canonical"),
        model("animal-acts", "text", "swapped"),
        model("vessels", "machine", "canonical", a1, b1),
        model("vessels", "text", "swapped", a2, b2),
        model("vessels-alt", "machine", "swapped", a3, b3),
        model("vessels-alt", "machine", "canonical", a4, b4),
        model("vessels-separated", "machine", "canonical"),
        (["export", "vessels-separated", str(out / "export.json")], {"verb": "export", "data": "vessels-separated"}),
    ]


def check_cli_output(spec: dict, code: int, stdout: str, analyses: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if spec["verb"] == "export":
        return []  # the written file is checked by check_export
    a = analyses[spec["data"]]
    if spec["format"] == "text":
        problems = oracle.check_text(stdout, a)
        if spec["verb"] == "model" and spec["model"] != "vessels-separated":
            if not any(l.startswith("  verification (") and l.endswith("): pass") for l in stdout.splitlines()):
                problems.append("text report lacks a passing verification line")
        return problems
    problems = oracle.check_machine(stdout, a)
    try:
        block = json.loads(stdout).get("model")
    except json.JSONDecodeError:
        return problems
    if spec["verb"] == "model" and spec["model"] != "vessels-separated":
        problems += check_model_block(block, spec, a)
    elif block is not None:
        problems.append("unexpected model block")
    return problems


def check_model_block(block, spec: dict, a: dict) -> list[str]:
    """The verification block of ``bellbox model``: exact constructions must
    reproduce the vessel data with the paper's entanglement placement; the
    three-decimal animal-acts model must stay within its tolerance, which
    bounds its CHSH value by the data's plus the summed residuals."""
    if block is None:
        return ["missing model block"]
    fmt = oracle.fmt6
    problems = []
    want = {
        "name": spec["model"],
        "alpha": fmt(Fraction(spec["alpha"])),
        "beta": fmt(Fraction(spec["beta"])),
        "iso": spec["iso"],
        "passed": True,
    }
    zeros = {p: "0.000000" for p in corpus.PAIRS}
    if spec["model"] in oracle.PAPER_PLACEMENT:
        state, measurements = oracle.PAPER_PLACEMENT[spec["model"]]
        want.update(
            residual_kind="probabilities", tolerance="0.000000", residuals=zeros,
            hermiticity_residuals=zeros, measurement_entangled=measurements,
            state_entangled=state, chsh_from_model="4.000000", chsh_imag_residual="0.000000",
        )
    else:
        want.update(residual_kind="expectations", tolerance="0.030000", chsh_imag_residual="0.000000")
        residuals = [Fraction(block["residuals"][p]) for p in corpus.PAIRS]
        if max(residuals) > Fraction(3, 100):
            problems.append(f"residuals {block['residuals']} exceed 0.03")
        slack = sum(residuals) + Fraction(5, 10**6)
        if abs(Fraction(block["chsh_from_model"]) - a["reference"]) > slack:
            problems.append(f"chsh_from_model {block['chsh_from_model']} is not within {float(slack)} of the data")
        if any(Fraction(block["hermiticity_residuals"][p]) > Fraction(1, 10**6) for p in corpus.PAIRS):
            problems.append(f"hermiticity residuals {block['hermiticity_residuals']}")
    for key, value in want.items():
        if block.get(key) != value:
            problems.append(f"model.{key}: got {block.get(key)!r}, want {value!r}")
    return problems


def check_export(path: Path, name: str) -> list[str]:
    """The exported file must hold the published dataset after the load
    rule, to the last bit of each float."""
    raw, sides = oracle.read_document(path.read_text(encoding="utf-8"))
    want = oracle.load_tables(oracle.DATASETS[name])
    problems = [] if sides == oracle.DEFAULT_SIDES else [f"export sides {sides}"]
    for pair in corpus.PAIRS:
        got = [Fraction(s) for s in raw[pair]]
        if any(abs(g - w) > Fraction(1, 2**52) for g, w in zip(got, want[pair])):
            problems.append(f"export {pair}: {raw[pair]}")
    return problems


def export_fixtures(directory: Path) -> None:
    directory.mkdir(parents=True)
    for name in FIXTURES:
        _, code, _, err = run_child([PYTHON, "-m", "bellbox.cli", "export", name, str(directory / f"{name}.json")])
        if code != 0:
            raise BenchError(f"export {name} failed:\n{err}")


def run_cli(args, workdir: Path) -> tuple[dict, list[str], int, int]:
    setup = []
    for k in range(SETUP_SAMPLES):
        start = time.perf_counter()
        export_fixtures(workdir / f"setup-{k}")
        setup.append(time.perf_counter() - start)
    files = workdir / f"setup-{SETUP_SAMPLES - 1}"
    problems = []
    for name in FIXTURES:
        problems += check_export(files / f"{name}.json", name)
    commands = cli_commands(args.seed, files, workdir)
    analyses = {name: oracle.analyze_dataset(name) for name in FIXTURES}

    # warm-up round: every output checked against the oracle, then kept
    reference = []
    for argv, spec in commands:
        _, code, out, _ = run_child([PYTHON, "-m", "bellbox.cli", *argv])
        problems += [f"{' '.join(argv)}: {p}" for p in check_cli_output(spec, code, out, analyses)]
        if spec["verb"] == "export":
            problems += check_export(workdir / "export.json", spec["data"])
            out = (workdir / "export.json").read_bytes()
        reference.append((code, out))
    by_args = {tuple(argv): out for (argv, _), (_, out) in zip(commands, reference)}
    exported = ("--format", "machine", "analyze", str(files / "vessels-separated.json"))
    modelled = ("--format", "machine", "model", "vessels-separated", "--iso", "canonical")
    if by_args[exported] != by_args[modelled]:
        problems.append("export then analyze differs from model vessels-separated")

    def loop(seconds, min_ops, traced, probes):
        """Whole rounds of the commands, each followed by ``probes`` import
        probes, so that those sample the same conditions as the ops."""
        latencies, rounds, imports, failed, wrong = [], [], [], 0, 0
        summary = {"stats": {}, "counts": {}}
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for (argv, spec), (ref_code, ref_out) in zip(commands, reference):
                if traced:
                    trace_file = workdir / "trace.json"
                    cmd = [PYTHON, str(HERE / "cli_child.py"), str(trace_file), *argv]
                else:
                    cmd = [PYTHON, "-m", "bellbox.cli", *argv]
                seconds_taken, code, out, _ = run_child(cmd)
                if code != 0:
                    failed += 1
                    continue
                latencies.append(seconds_taken)
                if spec["verb"] == "export":
                    out = (workdir / "export.json").read_bytes()
                if (code, out) != (ref_code, ref_out):
                    wrong += 1
                if traced:
                    merge(summary, json.loads(trace_file.read_text()))
            rounds.append(time.perf_counter() - round_start)
            imports += import_probes(probes, importtime=False)[0]
            if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
                return latencies, rounds, imports, failed, wrong, summary

    metrics = {}
    if args.trace:
        plain, _, _, f1, w1, _ = loop(args.seconds / 2, 1, False, 0)
        traced, _, _, f2, w2, summary = loop(args.seconds / 2, 1, True, 0)
        metrics.update(layer_metrics(summary, len(traced)))
        metrics.update(import_layer_metrics())
        metrics.update(trace_overhead(statistics.median(plain) * 1e3, statistics.median(traced) * 1e3))
        attempted, failed, wrong = len(plain) + len(traced) + f1 + f2, f1 + f2, w1 + w2
    else:
        latencies, rounds, imports, failed, wrong, _ = loop(args.seconds, MIN_SAMPLES, False, 2)
        attempted = len(latencies) + failed
        metrics.update(latency_metrics(latencies, rounds, len(commands)))
        metrics["import_ms"] = (statistics.median(imports), "ms")
        metrics["setup_s"] = (statistics.median(setup), "s")
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB")
    if wrong:
        problems.append(f"{wrong} ops gave output that differs from the checked warm-up output")
    return metrics, problems, attempted, failed


def trace_overhead(p50_plain: float, p50_traced: float) -> dict:
    return {
        "trace.op_p50_ms": (p50_traced, "ms"),
        "trace.overhead_ms": (p50_traced - p50_plain, "ms"),
    }


# ---------------------------------------------------------------------------
# analyze-batch and model-sweep: one worker process doing the ops
# ---------------------------------------------------------------------------


def run_worker(args, workdir: Path, setup_only: bool) -> dict:
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    argv = [
        PYTHON, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result),
    ]
    if setup_only:
        argv.append("--setup-only")
    _, code, _, err = run_child(argv)
    if code != 0:
        raise BenchError(f"worker failed:\n{err}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_analyses(warmup: list[dict]) -> list[str]:
    problems = []
    for op in warmup:
        a = oracle.analyze_document(Path(op["path"]).read_text(encoding="utf-8"))
        found = oracle.check_machine(op["machine"], a) + oracle.check_text(op["text"], a)
        if op["copy"] is not None:
            if op["same"] is not True:
                found.append("re-read copy differs from the experiment written")
            copy = oracle.analyze_document(Path(op["copy"]).read_text(encoding="utf-8"))
            found += oracle.check_machine(op["machine"], copy)
        problems += [f"{Path(op['path']).name}: {p}" for p in found]
    return problems


def check_models(warmup: list[dict]) -> list[str]:
    import oracle_models as om

    problems = []
    for op in warmup:
        kind = op["kind"]
        if kind == "synthesized":
            reference = {p: op["targets"][p] for p in corpus.PAIRS}
        else:
            reference = om.data_tables("animal-acts" if kind == "animal-acts" else "vessels")
        found = []
        for pair in corpus.PAIRS:
            if any(abs(g - w) > 1e-15 for g, w in zip(op["data"][pair], reference[pair])):
                found.append(f"data table {pair} differs from the reference")
        if kind == "animal-acts":
            found += om.check_operator_model(op, reference, op["verdicts"])
        else:
            found += om.check_basis_model(op, reference, op["verdicts"], oracle.PAPER_PLACEMENT.get(kind))
            want = 4.0 if kind != "synthesized" else float(om.reference_combination(reference))
            for iso, v in op["verdicts"].items():
                if abs(v["chsh_from_model"] - want) > om.EXACT_TOL:
                    found.append(f"{iso}: chsh_from_model {v['chsh_from_model']}, want {want}")
        problems += [f"{kind} {op.get('alpha', '')}: {p}" for p in found]
    return problems


def run_inprocess(args, workdir: Path) -> tuple[dict, list[str], int, int]:
    setup = [run_worker(args, workdir / f"setup-{k}", True)["setup_s"] for k in range(SETUP_SAMPLES - 1)]
    # import probes on both sides of the measured run, which is one process
    imports = [] if args.trace else import_probes(IMPORT_PROBES // 2, importtime=False)[0]
    result = run_worker(args, workdir / "run", False)
    if not args.trace:
        imports += import_probes(IMPORT_PROBES - IMPORT_PROBES // 2, importtime=False)[0]
    setup.append(result["setup_s"])
    check = check_analyses if args.workload == "analyze-batch" else check_models
    problems = check(result["warmup"])
    if result["wrong"]:
        problems.append(f"{result['wrong']} ops gave output that differs from the checked warm-up output")
    metrics = {}
    if args.trace:
        metrics.update({k: tuple(v) for k, v in result["layers"].items()})
        metrics.update(import_layer_metrics())
        metrics.update(trace_overhead(result["plain_p50_ms"], result["traced_p50_ms"]))
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics.update(latency_metrics(result["latencies"], result["rounds"], result["round_ops"]))
        metrics["import_ms"] = (statistics.median(imports), "ms")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    return metrics, problems, result["attempted"], result["failed"]


# ---------------------------------------------------------------------------


def environment(args) -> dict:
    """Recorded beside the metrics: interpreter, CPUs, bare start-up."""
    bare = [run_child([PYTHON, "-c", "pass"], env=dict(os.environ))[0] for _ in range(5)]
    no_site = [run_child([PYTHON, "-S", "-c", "pass"], env=dict(os.environ))[0] for _ in range(5)]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "python_c_pass_ms": statistics.median(bare) * 1e3,
        "python_S_c_pass_ms": statistics.median(no_site) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bellbox benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellbox" / "__init__.py").is_file():
        print(f"error: bellbox sources not found under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "bellbox"), quiet=1):
        print("error: bellbox does not compile", file=sys.stderr)
        return 1

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = run_cli if args.workload == "cli-oneshot" else run_inprocess
        metrics, problems, attempted, failed = runner(args, workdir)
        env = environment(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(env))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
