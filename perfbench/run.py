"""Run one workload of the mrfrecon benchmark and print its metrics.

    python3 perfbench/run.py --workload radial32 --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Human-readable lines come first. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Results, and for a traced run its spans, are also written under
``.perfbench/`` in the checkout.
"""

import os

# one BLAS / OpenMP thread, fixed before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time to spend in measured cycles")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def report(name, rows, env, result, per_op):
    """Human-readable block; rows are (metric, value, unit, note)."""
    print(f"# mrfrecon benchmark: {name}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.4g} (ratio)")
    for metric, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:<48} {shown:>14} {unit:<6} {note}")
    for op in per_op:
        parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(op["layers"].items()))
        print(f"# op {op['op']} {op['kind']}: wall={op['wall_s']:.4f} s = {parts}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mrfrecon" / "__init__.py").is_file():
        print(f"error: no mrfrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workload

    spec = workload.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workload.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = OUT_DIR
    work = out_dir / f"work-{os.getpid()}"
    run = workload.Run(spec, args.seed, work)
    try:
        run.execute(args.seconds, trace=args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = workload.environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layer, per_op = workload.per_layer(run)
        rows = [(n, v, u, "computed" if n in workload.COMPUTED_NAMES else "")
                for n, (v, u) in layer.items()]
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layer.items()}
        run.tracer.write(out_dir / f"spans-{tag}.csv.gz")
        for name in sorted(run.tracer.hook_errors):
            print(f"error: {name} could not be traced or counted", file=sys.stderr)
    else:
        e2e, per_op = workload.end_to_end(run), []
        rows = [(n, v, u, note) for n, (v, u, note) in e2e.items()]
        metrics = {n: {"value": v, "unit": u} for n, (v, u, _) in e2e.items()}
    result = {
        # a traced run whose hooks no longer fit the program reports wrong layers
        "correct": run.failed == 0 and not run.tracer.hook_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {**result, "environment": env, "samples": run.samples,
         "sample_refs": run.sample_refs, "reference_s": run.reference.times, "per_op": per_op}, indent=1))
    report(f"workload={args.workload} seed={args.seed} trace={args.trace}", rows, env, result, per_op)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # import perfbench as a package from the checkout root, not from this
    # script's directory, where trace.py would shadow the standard library
    sys.path[0] = str(ROOT)
    sys.exit(main())
