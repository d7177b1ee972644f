"""One benchmark process: import spinmod, then run a list of CLI calls in
a closed loop, each starting when the previous one returns.

Usage: ``python3 perfbench/worker.py JOB.json`` with ``src`` on
``PYTHONPATH``.  The job file holds ``{"argvs": [[...], ...], "trace":
bool, "spans": path or null, "outputs": path}``.  The captured stdout of
each call goes to the outputs file, one JSON string a line, as soon as
the call returns, so kept answers do not add to the peak memory.  The
worker prints one JSON object with the monotonic clock reading at which
the first call could be made, each call's exit code and latency, the
wall and CPU time of
the whole loop, the process's peak resident memory and, when traced, the
per-layer metrics.  Times come both raw and in reference seconds
(``speed.py``); per-layer times are in reference seconds.
"""

import contextlib
import io
import json
import resource
import sys
import time

from speed import SpeedSampler

SAMPLER = SpeedSampler()
SAMPLER.start()

import spinmod  # noqa: E402  (imported after the sampler starts)
import spinmod.cli  # noqa: E402

READY = time.monotonic()


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    """High-water resident memory of this process's own address space.
    ``ru_maxrss`` would not do: after ``exec`` it starts from the launching
    process's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_job(job):
    tracer = None
    if job.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install({name: getattr(spinmod, name) for name in
                        ("graphs", "cycles", "spin", "morphisms", "posets",
                         "tropical", "verify", "cli")})
    main = spinmod.cli.main
    clock = time.monotonic
    calls = []
    with open(job["outputs"], "w") as outputs:
        cpu0 = _cpu_seconds()
        wall0 = clock()
        for op_id, argv in enumerate(job["argvs"]):
            if tracer is not None:
                tracer.op_id = op_id
            buf = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = main(list(argv))
                except Exception as exc:  # a crash is a failed operation
                    rc = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            outputs.write(json.dumps(buf.getvalue()) + "\n")
            calls.append([rc, t1 - t0, t0, t1])
        wall1 = clock()
    cpu = _cpu_seconds() - cpu0
    out = {"ready": READY, "wall_s": wall1 - wall0, "cpu_s": cpu,
           "peak_rss_mb": _peak_rss_mb()}
    SAMPLER.stop()
    busy = SAMPLER.busy(wall0, wall1)
    factor = SAMPLER.factor(wall0, wall1)
    out["ref_wall_s"] = (wall1 - wall0 - busy) * factor
    out["ref_cpu_s"] = (cpu - busy) * factor
    for call in calls:
        t0, t1 = call[2:]
        call[2:] = [SAMPLER.normalize(t0, t1)]
    if tracer is not None:
        out["layers"] = tracer.metrics(SAMPLER.normalize)
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    out["calls"] = calls
    # speed during start-up, applied to the whole launch-to-ready time
    out["setup_busy_s"] = SAMPLER.busy(0, READY)
    out["setup_factor"] = SAMPLER.factor(0, READY)
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        job_spec = json.load(fh)
    json.dump(run_job(job_spec), sys.stdout)
