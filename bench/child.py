"""Run one qcluster CLI call in a fresh process and write what it measured.

    python3 bench/child.py JOB.json

JOB.json holds {"argv": [...], "mode": "light" | "trace" | "profile",
"setup_only": bool, "src": dir holding the qcluster package,
"result": path, "trace": path}.
The clock starts before qcluster is imported, so import time is part of
the call, and so does the speed probe (bench/probe.py), whose samples
go into the result. Standard output of the CLI is captured and returned
in the result, since the correctness digests are taken over it. With
"setup_only" the call ends at its first work stage (see
tracer.WORK_STAGES), so that only its set-up is timed.
"""
import time

T0 = time.perf_counter_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import probe  # noqa: E402


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sampler = probe.Sampler()
    sys.path.insert(0, job["src"])
    import tracer
    from qcluster import cli

    profiler = None
    if job["mode"] == "profile":
        import cProfile
        profiler = cProfile.Profile()
        recorder = None
    else:
        targets = tracer.LAYERS if job["mode"] == "trace" else tracer.STAGES
        recorder = tracer.install(targets, setup_only=job["setup_only"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if profiler is not None:
            profiler.enable()
        try:
            rc = cli.main(job["argv"])
        except tracer.SetupDone:
            rc = None
        if profiler is not None:
            profiler.disable()
    t1 = time.perf_counter_ns()
    samples, busy = sampler.stop()
    result = {
        "rc": rc,
        "t0_ns": T0,
        "t1_ns": t1,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "probe": samples,
        "probe_busy": busy,
    }
    if job["mode"] == "light":
        result["spans"] = recorder.spans()
    elif job["mode"] == "trace":
        recorder.write(job["trace"])
    else:
        result["profile_calls"] = [
            [code[0], code[2], stat[1]] for code, stat in _profile_stats(profiler).items()
        ]
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


def _profile_stats(profiler):
    import pstats
    return pstats.Stats(profiler).stats


if __name__ == "__main__":
    main(sys.argv[1])
