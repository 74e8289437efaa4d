"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --blas-threads 1 --workload train_cipher \\
        --seed 0 --seconds 10 --trace 0

The program is imported from `src/` of the checkout this file sits in.
Set-up (imports, fixture loading, a checkpoint round trip, inputs and a
warm-up) is timed first; then whole rounds of the workload's operations
run until `--seconds` have passed; then the outputs are checked against
the oracles. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics` -- the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
also writes its spans to `perfbench/out/`.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
MIN_ROUNDS = 3
CALIBRATE_EVERY_S = 0.4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args(argv)
    cores = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= cores:
        ap.error(f"--blas-threads must be between 1 and the {cores} usable cores")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program(blas_threads: int):
    """Pin the BLAS pool, then import numpy and `snda` from this checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    package = ROOT / "src" / "snda"
    if not (package / "__init__.py").is_file():
        sys.exit(f"no program to benchmark: {package} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import snda

    if Path(snda.__file__).resolve().parent != package:
        sys.exit(f"imported snda from {snda.__file__}, not from {package}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and `snda` with
    this run's environment, as the run's own start-up did."""
    code = "import numpy, snda, snda.cli"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def layer_metrics(w, ops: int, setup) -> dict:
    """Per-layer figures of a traced run; `w` covers the timed rounds and
    `setup` the set-ups. Times (`*_ms`) are ms per operation unless named
    per call; the rest are counts."""
    import numpy as np

    def per_op(seconds):
        return 1e3 * seconds / ops

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    rows = w.notes("model.denoise_logits")
    chains = w.notes("sampling.sample_chain")
    in_step = w.parent_name == "training.train_step"
    step_children = np.isin(w.name, ["training.loss_unrolled", "numerics.backward"])
    is_data = np.array([n.startswith("data.") for n in w.name], dtype=bool)
    from_data = np.array([n.startswith("data.") for n in w.parent_name], dtype=bool)
    quality_bleu = (w.name == "evaluation.corpus_bleu") & (
        w.parent_name != "evaluation.self_bleu")
    out = {
        "numerics.backward_ms": per_op(w.total_s("numerics.backward")),
        "numerics.cross_entropy_ms": per_op(w.total_s("numerics.cross_entropy")),
        "model.denoise_logits_ms": 1e3 * w.total_s("model.denoise_logits") / max(len(rows), 1),
        "model.forward_calls": len(rows) / ops,
        "model.forward_rows_per_call": mean(rows),
        "model.build_conditioning_ms": per_op(w.total_s("model.build_conditioning")),
        "training.train_step_ms": per_op(w.total_s("training.train_step")),
        "training.loss_unrolled_ms": per_op(w.total_s("training.loss_unrolled")),
        "training.optimizer_ms": per_op(w.total_s("training.train_step")
                                        - w.duration[in_step & step_children].sum()),
        "training.sample_tokens_ms": per_op(w.total_s("training.sample_tokens")),
        "corruption.corrupt_batch_ms": per_op(w.total_s("corruption.corrupt_batch")),
        "data.batch_ms": per_op(w.duration[is_data & ~from_data].sum()),
        "sampling.sample_reranked_ms": per_op(w.total_s("sampling.sample_reranked")),
        "sampling.model_score_ms": per_op(w.total_s("sampling.model_score")),
        "sampling.chain_steps": mean([steps for steps, _, _ in chains]),
        "sampling.chain_steps_tau0.2": mean([s for s, tau, _ in chains if tau == 0.2]),
        "sampling.chain_steps_tau1.5": mean([s for s, tau, _ in chains if tau == 1.5]),
        "sampling.inpaint_chain_ms": per_op(float(
            w.duration[w.name == "sampling.sample_chain"][[tpl for _, _, tpl in chains]].sum())),
        "evaluation.draw_samples_ms": per_op(w.total_s("evaluation.draw_samples")),
        "evaluation.corpus_bleu_ms": per_op(w.duration[quality_bleu].sum()),
        "evaluation.self_bleu_ms": per_op(w.total_s("evaluation.self_bleu")),
        "checkpoint.save_ms": 1e3 * setup.total_s("checkpoint.save_checkpoint") / SETUP_REPEATS,
        "checkpoint.load_ms": 1e3 * setup.total_s("checkpoint.load_checkpoint") / SETUP_REPEATS,
    }
    return {k: float(v) for k, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program(args.blas_threads)
    from perfbench import tracer as tracing
    from perfbench import workloads
    from perfbench.calibration import Calibration

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    calibration = Calibration()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(imports) + statistics.median(setups)

    timed_from = tracer.mark() if tracer else 0
    rates, attempted, failed = [], 0, 0
    start = time.perf_counter()
    r = 0
    round_s = 0.0
    while r < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        inputs = wl.prepare(r)
        # about one kernel per CALIBRATE_EVERY_S of work, so long rounds
        # are bracketed as densely as short ones
        for _ in range(max(1, int(round_s / CALIBRATE_EVERY_S))):
            calibration.measure()
        t0 = time.perf_counter()
        try:
            output = wl.run_round(r, inputs)
        except Exception:  # a failed round counts against `failed`, the run goes on
            traceback.print_exc()
            failed += wl.ops_per_round
            round_s = time.perf_counter() - t0
        else:
            round_s = time.perf_counter() - t0
            rates.append(wl.ops_per_round / round_s)
            wl.record(inputs, output)
        attempted += wl.ops_per_round
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        timed = tracer.window(timed_from)
        setup = tracer.window(0, timed_from)
    if not rates:
        sys.exit("every round failed")

    failures = wl.check()
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    # in reference seconds: see calibration.py
    speed = calibration.speed()
    throughput = statistics.median(rates) / speed
    setup_ref_s = setup_s * speed
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "snda").glob("*.py"))
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={args.blas_threads} src_lines={src_lines}")
    print(f"host speed {speed:.4f} x reference (kernel median "
          f"{1e3 * statistics.median(calibration.times):.2f} ms; parts "
          + " ".join(f"{k}={1e3 * statistics.median(v):.3f}" for k, v in calibration.parts.items())
          + ")")
    print(f"{wl.metric} = {throughput:.4f} {wl.op} per reference s; "
          f"{statistics.median(rates):.4f} {wl.op}/s as timed "
          f"(median of {len(rates)} rounds of {wl.ops_per_round} {wl.op})")
    print(f"setup_s = {setup_ref_s:.4f} reference s; {setup_s:.4f} s as timed "
          f"(median start-up with imports of {[round(s, 4) for s in imports]} "
          f"+ median set-up of {[round(s, 4) for s in setups]})")
    print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")

    if tracer:
        metrics = {k: {"value": v * speed, "unit": "ms"} if k.endswith("_ms")
                   else {"value": v, "unit": "count"}
                   for k, v in layer_metrics(timed, attempted - failed, setup).items()}
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.save(path)
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.4f} {m['unit']}")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {"throughput": {"value": throughput, "unit": "ops/s"},
                   "setup_s": {"value": setup_ref_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
