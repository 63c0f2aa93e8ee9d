"""Cold-process benchmark of equihom: Bredon table, minion check, arity survey.

    python3 perfbench/run.py --workload bredon|minion|survey --seed S \
        --seconds T --trace 0|1

Each repetition runs ``worker.py`` in a fresh interpreter, one at a time, so
the library's lru caches and the ``CyclePipeline`` tori start empty, and
gives it a fresh ``EQUIHOM_CACHE`` so that every repetition pays the same
structure-colouring search and persist.  Scratch files live under
``.perfbench_tmp`` in the checkout and are removed at the end.

``--trace 0`` runs as many untraced repetitions as fit in ``--seconds``
(at least one, judged by the first one's duration), adds set-up-only
processes until there are ``SETUP_SAMPLES`` set-up times, and reports
medians of the end-to-end metrics.  ``--trace 1`` runs two traced repetitions and one untraced one, and
reports per-layer self times and counts; the counts of the two traced runs
must agree exactly.

Every line but the last is a human-readable summary, including the provenance
record and ``failed_frac``; the last line is the JSON result.  The exit code
is 1 if any operation failed its check and 2 if the checkout has no
``src/equihom``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bredon", "minion", "survey")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

MODULES = ("snf", "zz2", "simplicial", "homcomplexes", "degrees", "graphs",
           "slices", "cli")
# (metric, unit) reported by a traced run.  "<span>.self_s" and
# "<span>.calls" come from the spans, "<module>.self_s" sums a module's spans,
# the rest are counters.
PER_LAYER = tuple(
    [(f"{name}.self_s", "s") for name in (
        "snf.smith_normal_form", "snf.snf_with_transforms", "snf.matmul",
        "zz2.equivariant_complex", "zz2.specialize", "zz2.cohomology",
        "zz2.ordinary_cochain_complex", "zz2.quotient_pstar_check",
        "simplicial.gamma_power", "simplicial.sproduct",
        "simplicial.map_from_colouring",
        "homcomplexes.search_t_colouring", "homcomplexes.hom_complex",
        "homcomplexes.torus", "homcomplexes.mu", "homcomplexes.mu_colours",
        "homcomplexes.mu_prime",
        "degrees.phi", "degrees.deg_vector", "degrees.minor_map",
        "degrees.torus_complex",
        "graphs.enumerate_homs", "graphs.sample_homs", "graphs.minor",
        "graphs.power",
        "slices.arity_experiment", "slices.swap_fraction",
        "cli.main")]
    + [(f"{name}.calls", "count") for name in (
        "snf.smith_normal_form", "snf.snf_with_transforms", "zz2.cohomology",
        "simplicial.gamma_power", "simplicial.map_from_colouring",
        "homcomplexes.mu_prime", "degrees.phi", "degrees.deg_vector",
        "graphs.minor", "graphs.power", "slices.swap_fraction",
        "slices.chain_alternations")]
    + [(name, "count") for name in (
        "snf.smith_normal_form.nnz_in", "zz2.orbit_cells",
        "simplicial.gamma_power.misses", "simplicial.product_cells",
        "graphs.homs_emitted")]
    + [("slices.homs_used_frac", "ratio")]
    + [(f"{module}.self_s", "s") for module in MODULES]
    + [("trace_overhead_s", "s")])


def summary(values):
    """Sample count, median and quartiles of a list of numbers."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "samples": values}


def provenance(args):
    sha = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload, seed, scratch):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def spawn(self, trace=False, setup_only=False):
        """One fresh interpreter; its result dict, or one with ``error``."""
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        env = dict(os.environ, EQUIHOM_CACHE=str(tmp / "cache"))
        cmd = [sys.executable, "-I", str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(int(trace)), "--tmp", str(tmp)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(time.monotonic())], env=env,
                cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            if proc.returncode != 0:
                return {"error": f"worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}"}
            return json.loads((tmp / "result.json").read_text())
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(runner, seconds):
    """Untraced repetitions, then set-up-only processes; metrics and reps."""
    reps = [runner.spawn()]
    # The first repetition's duration fixes how many fit, so a run ends near
    # ``seconds`` whether a repetition takes 3 s or 15 s.
    target = max(1, round(seconds / runner.elapsed()))
    while len(reps) < target and "error" not in reps[-1]:
        reps.append(runner.spawn())
    good = [r for r in reps if "error" not in r]
    setups = [r["setup_s"] for r in good]
    while good and len(setups) < SETUP_SAMPLES:
        probe = runner.spawn(setup_only=True)
        if "error" in probe:
            reps.append(probe)
            break
        setups.append(probe["setup_s"])
    stats = {}
    if good:
        stats = {"wall_s": summary([r["wall_s"] for r in good]),
                 "setup_s": summary(setups),
                 "peak_rss_mb": summary([r["peak_rss_mb"] for r in good]),
                 "cpu_s": summary([r["cpu_s"] for r in good])}
    return stats, reps


def per_layer(traced, plain):
    """Per-layer metrics from traced results and one untraced result."""
    calls = traced[0]["trace"]["calls"]
    counts = traced[0]["trace"]["counts"]
    self_s = {}
    for rep in traced:
        for name, value in rep["trace"]["self_s"].items():
            self_s.setdefault(name, []).append(value)
    self_s = {name: statistics.median(v) for name, v in self_s.items()}
    module_s = {}
    for name, value in self_s.items():
        module = name.split(".", 1)[0]
        module_s[module] = module_s.get(module, 0.0) + value
    emitted = counts.get("graphs.homs_emitted", 0)
    values = {
        "slices.homs_used_frac":
            counts.get("slices.maps_inspected", 0) / emitted if emitted else 0.0,
        "trace_overhead_s":
            statistics.median(r["wall_s"] for r in traced) - plain["wall_s"],
    }
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        if metric.endswith(".self_s"):
            base = metric[:-len(".self_s")]
            values[metric] = (self_s.get(base, 0.0) if "." in base
                              else module_s.get(base, 0.0))
        elif metric.endswith(".calls"):
            values[metric] = calls.get(metric[:-len(".calls")], 0)
        else:
            values[metric] = counts.get(metric, 0)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equihom" / "__init__.py").is_file():
        print(f"error: no equihom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        if args.trace:
            traced = [runner.spawn(trace=True)]
            plain = runner.spawn()
            traced.append(runner.spawn(trace=True))
            reps = traced + [plain]
        else:
            stats, reps = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    notes = [r["error"] for r in reps if "error" in r]
    good = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in good) + len(notes)
    failed = sum(r["failed"] for r in good) + len(notes)
    for r in good:
        notes.extend(r["notes"])
    digests = {r["digest"] for r in good}
    if len(digests) > 1:
        failed += 1
        notes.append(f"report digests differ across repetitions: {sorted(digests)}")
    metrics = {}
    if args.trace:
        if not notes:
            first, second = ((r["trace"]["calls"], r["trace"]["counts"])
                             for r in traced)
            if first != second:
                failed += 1
                notes.append("exact counts differ between the two traced runs")
            values = per_layer(traced, plain)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
    elif not notes:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}

    detail = {"provenance": provenance(args), "repetitions": len(good),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted if attempted else 1.0,
              "notes": notes}
    if args.trace:
        detail["wall_s"] = {"traced": [r.get("wall_s") for r in traced],
                            "untraced": plain.get("wall_s")}
    elif not notes:
        detail["end_to_end"] = stats
    print(json.dumps(detail, indent=1, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {detail['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
