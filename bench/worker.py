"""Long-lived library worker for the fast_path workload.

    python bench/worker.py '<config json>'

Imports qharmonics, samples the seeded fields, runs one untimed warm-up
call and prints ``{"ready": ...}``.  It then reads one JSON request per
line on stdin and answers each with one JSON line on stdout:

    {"op": "job", "job": {...}, "trace": bool, "corrupt": bool}
        time one library call, then check it outside the timed span
    {"op": "install"}   install the span wrappers (before traced jobs)
    {"op": "spans"}     return every span recorded so far
    {"op": "exit"}

Library functions are looked up on their modules at call time, so the
wrappers installed by `Recorder.install` are the ones called.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import qharmonics  # noqa: E402
from qharmonics import grids, qft, qlct  # noqa: E402

import checks  # noqa: E402
import seeded  # noqa: E402
from spans import Recorder  # noqa: E402


class Worker:
    def __init__(self, config):
        self.extent = config["extent"]
        params = seeded.bumps(seeded.rng(config["seed"], "field"))
        self.signals = {}
        for n in config["sizes"]:
            data = seeded.field(params, self.extent, n)
            grid = grids.GridSpec.centered(self.extent, n)
            self.signals[n] = grids.QSignal2D(grid, data)
        self.recorder = Recorder()

    def call(self, job):
        sig = self.signals[job["n"]]
        if job["kind"] == "qft_fast":
            kind = qft.QftKind(qft.Side(job["side"]))
            return qft.qft_fast(sig, kind)
        mats = [qlct.LctParams(*m) for m in job["mats"]]
        kind = qlct.LctKind(qft.Side.TWO_SIDED, mats[0], mats[1])
        return qlct.qlct_via_qft(sig, kind, fast=True)

    def check(self, job, spec, corrupt):
        data = np.asarray(spec.data)
        nodes = job["nodes"]
        if corrupt:
            data = data.copy()
            data[nodes[0][0], nodes[1][0], 0] += 1e-3 * float(np.max(np.abs(data)))
        sig = self.signals[job["n"]]
        grid_u, grid_v = np.asarray(spec.grid.s), np.asarray(spec.grid.t)
        if job["kind"] == "qft_fast":
            return checks.check_qft_fast(data, grid_u, grid_v, sig.data, self.extent,
                                         job["side"], nodes)
        return checks.check_qlct_fast(data, grid_u, grid_v, sig.data, self.extent,
                                      job["mats"], nodes)

    def run(self, request):
        job = request["job"]
        rec = self.recorder
        rec.job = request.get("job_id")
        rec.active = request.get("trace", False)
        try:
            t0 = time.perf_counter()
            spec = self.call(job)
            seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed job is reported, not fatal
            return {"seconds": None, "ok": False, "margin": checks.BAD,
                    "detail": f"{type(exc).__name__}: {exc}", "rss_kb": _rss_kb()}
        finally:
            rec.active = False
        try:
            ok, margin, detail = self.check(job, spec, request.get("corrupt", False))
        except Exception as exc:  # noqa: BLE001 - an unreadable result fails its check
            ok, margin, detail = False, checks.BAD, f"check raised {type(exc).__name__}: {exc}"
        return {"seconds": seconds, "ok": bool(ok), "margin": float(margin),
                "detail": detail, "rss_kb": _rss_kb()}


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    config = json.loads(sys.argv[1])
    worker = Worker(config)
    warm = worker.run({"job": config["warmup"]})
    reply = {"ready": True, "qharmonics": qharmonics.__file__, "warmup": warm}
    print(json.dumps(reply), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "job":
            reply = worker.run(request)
        elif op == "install":
            worker.recorder.install()
            reply = {"missing": worker.recorder.missing}
        elif op == "spans":
            reply = worker.recorder.dump()
        else:
            break
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
