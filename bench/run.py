#!/usr/bin/env python3
"""qharmonics benchmark.

    python3 bench/run.py --workload {quadrature,fast_path,cli_batch}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program under test is the
checkout's ``src/qharmonics``, reached through PYTHONPATH, with
QH_THREADS and every BLAS thread variable set to 1 in each child.  The
last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones of a separate traced run (see
layers.json).  The line before it holds provenance and details.

Every workload is a closed loop with one client and one job at a time.
A pass runs the workload's fixed job list once, in an order drawn from
the seed; a run makes ``round(seconds / pass_budget_s)`` passes, a
constant per workload, so two commits always run the same work.  Checks run outside the timed
spans; a job fails if it exits non-zero, raises or fails its check.

``--toy`` shrinks every size (for the self-test) and ``--corrupt``
damages the first timed job's output before its check, which the
self-test uses to show that a bad output is counted as failed.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checks  # noqa: E402
import seeded  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
JOB_TIMEOUT_S = 120.0
THREAD_VARS = ("QH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SIDES = ("two", "right", "left")
MB = 1024.0  # ru_maxrss is in KiB on Linux


class SetupError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


@dataclass
class Outcome:
    label: str
    seconds: float
    ok: bool
    margin: float
    detail: str
    rss_kb: float
    trace: dict = field(default_factory=dict)


def child_env():
    """Environment of every child: one thread, the checkout's sources, and
    bytecode cached beside them as an installed package would have it."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


PROBE = r"""
import json, sys
import qharmonics, qharmonics.cli, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
print(json.dumps({"qharmonics": qharmonics.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_qharmonics_path(path):
    real = os.path.realpath(path)
    if not real.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"imported qharmonics from {real}, not from {SRC}")


def provenance(env, seed):
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=JOB_TIMEOUT_S)
    if out.returncode != 0:
        raise SetupError(f"cannot import qharmonics from {SRC}: {out.stderr.strip()}")
    info = json.loads(out.stdout.strip().splitlines()[-1])
    check_qharmonics_path(info["qharmonics"])
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    info.update({
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "threads": {var: env[var] for var in THREAD_VARS},
    })
    return info


def _finite_margin(margin):
    return float(margin) if math.isfinite(margin) else checks.BAD


# -- CLI workloads -------------------------------------------------------------

@dataclass
class Job:
    label: str
    argv: list
    check: object  # stdout -> (ok, margin, detail)
    outputs: tuple = ()


def corrupt_output(job, stdout):
    """Damage a job's output: NaN into the last value of its first output
    file (or a flipped last byte for images), else every number on the last
    line of its standard output."""
    if job.outputs:
        path = job.outputs[0]
        with open(path, "r+b") as fh:
            if path.endswith(".ppm"):
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
                fh.seek(-1, os.SEEK_END)
                fh.write(bytes([last[0] ^ 0xFF]))
            else:
                fh.seek(-8, os.SEEK_END)
                fh.write(struct.pack("<d", float("nan")))
        return stdout
    lines = stdout.rstrip("\n").split("\n")

    def bad(tok):
        try:
            float(tok)
        except ValueError:
            return tok
        return "1e9"

    lines[-1] = ",".join(bad(tok) for tok in lines[-1].split(","))
    return "\n".join(lines) + "\n"


class CliWorkload:
    """Each job is a fresh ``python -m qharmonics.cli`` process."""

    #: seconds of --seconds charged per pass, which fixes the pass count;
    #: at --seconds 30 a run lasts about 45 s on quadrature, 30 s otherwise
    pass_budget_s = 1.0

    def __init__(self, seed, toy, work):
        self.seed = seed
        self.work = work
        self.env = child_env()

    # subclass hooks
    def prepare(self, directory):
        """Write the seeded input files; return nothing."""

    def warmup(self, directory):
        raise NotImplementedError

    def jobs(self, directory):
        raise NotImplementedError

    def ordered(self, groups):
        """Shuffle the job groups with the seed; a group's order is kept."""
        order = seeded.rng(self.seed, "order").permutation(len(groups))
        return [job for idx in order for job in groups[idx]]

    def run_job(self, job, traced=False, corrupt=False):
        out_path = os.path.join(self.work, "job.stdout")
        err_path = os.path.join(self.work, "job.stderr")
        span_path = os.path.join(self.work, "job.spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), span_path, *job.argv]
        else:
            argv = [sys.executable, "-m", "qharmonics.cli", *job.argv]
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        os.unlink(out_path)
        os.unlink(err_path)
        trace = {}
        if traced and os.path.exists(span_path):
            with open(span_path) as fh:
                trace = json.load(fh)
            os.unlink(span_path)
        if proc.returncode != 0:
            return Outcome(job.label, seconds, False, checks.BAD,
                           f"exit {proc.returncode}: {stderr.strip()[-300:]}", usage.ru_maxrss, trace)
        if corrupt:
            stdout = corrupt_output(job, stdout)
        ok, margin, detail = job.check(stdout)
        return Outcome(job.label, seconds, bool(ok), _finite_margin(margin), detail,
                       usage.ru_maxrss, trace)

    def setup(self, rep):
        """One set-up: seeded inputs, then the untimed warm-up job."""
        directory = os.path.join(self.work, f"setup{rep}")
        os.makedirs(directory)
        t0 = time.perf_counter()
        self.prepare(directory)
        warm = self.run_job(self.warmup(directory))
        seconds = time.perf_counter() - t0
        self.inputs = directory
        return seconds, warm

    def run_pass(self, index, traced=False, corrupt=False):
        directory = os.path.join(self.work, f"pass{index}")
        os.makedirs(directory)
        try:
            return [self.run_job(job, traced, corrupt and i == 0)
                    for i, job in enumerate(self.jobs(directory))]
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def close(self):
        pass


class Quadrature(CliWorkload):
    """CLI round trips on the quadrature paths.

    Every side of the QFT and the two-sided plus one sided QLCT run at
    512^2; the two-sided QFT and QLCT also run at 1024^2, where
    exp_contract dominates the job.  Only the two-sided kernels run at
    1024^2 so that three passes fit in a run: with fewer, the job-time
    order statistics fall between the 512^2 and 1024^2 clusters and
    swing with single jobs."""

    pass_budget_s = 10.0
    extent = 10.0
    window = "8"

    def __init__(self, seed, toy, work):
        super().__init__(seed, toy, work)
        self.sizes = (128, 160) if toy else (512, 1024)
        mu1, mu2 = seeded.axis_pair(seeded.rng(seed, "axes"))
        self.axes = [f"--mu1={seeded.fmt3(mu1)}", f"--mu2={seeded.fmt3(mu2)}"]
        g = seeded.rng(seed, "lct")
        self.mats = (seeded.lct_matrix(g), seeded.lct_matrix(g))
        self.sided = str(seeded.rng(seed, "sided").choice(["right", "left"]))

    def roundtrip(self, n, side, transform):
        argv = ["roundtrip", "--fixture", "qgaussian", "--side", side, "--grid", str(n),
                "--extent", seeded.fmt(self.extent), "--window", self.window,
                "--transform", transform, *self.axes]
        if transform == "qlct":
            argv += seeded.lct_flags(self.mats)
        return Job(f"roundtrip/{transform}/{side}/{n}", argv,
                   lambda out: checks.roundtrip(out, "qgaussian", side, transform))

    def warmup(self, directory):
        return self.roundtrip(128, "two", "qft")

    def jobs(self, directory):
        n, big = self.sizes
        groups = [[self.roundtrip(n, side, "qft")] for side in SIDES]
        groups += [[self.roundtrip(n, side, "qlct")] for side in ("two", self.sided)]
        groups += [[self.roundtrip(big, "two", transform)] for transform in ("qft", "qlct")]
        schedule = ("1", "0.1", "0.01")
        groups.append([Job(f"gauss-mean/{n}", [
            "gauss-mean", "--fixture", "gaussian", "--grid", str(n),
            "--extent", seeded.fmt(self.extent), "--window", self.window,
            "--schedule", ",".join(schedule)],
            lambda out: checks.gauss_mean(out, schedule))])
        return self.ordered(groups)


class CliBatch(CliWorkload):
    """Many short CLI processes that read and write files."""

    pass_budget_s = 10.0
    extent = 8.0
    sweep = (25, 50, 100, 200, 400)

    def __init__(self, seed, toy, work):
        super().__init__(seed, toy, work)
        self.image_size = 128 if toy else 1024
        self.variation_grid = 64 if toy else 512
        mu1, mu2 = seeded.axis_pair(seeded.rng(seed, "axes"))
        self.axes = [f"--mu1={seeded.fmt3(mu1)}", f"--mu2={seeded.fmt3(mu2)}"]
        g = seeded.rng(seed, "lct")
        self.mats = (seeded.lct_matrix(g), seeded.lct_matrix(g))
        g = seeded.rng(seed, "cli_batch")
        self.sides = [str(s) for s in g.choice(SIDES, size=3)]
        self.angles = [float(a) for a in g.uniform(0.6, 1.2, size=2)]
        self.lc_point = [float(x) for x in g.uniform(-1.0, 1.0, size=2)]
        self.lc_eps = [float(x) for x in g.uniform(0.3, 0.7, size=2)]
        self.variation_extent = float(g.uniform(1.5, 4.0))
        self.points = seeded.jump_points(seeded.rng(seed, "jump"))
        self.params = seeded.bumps(seeded.rng(seed, "field"))
        self.fields = {n: seeded.field(self.params, self.extent, n) for n in (64, 128, 256)}
        self.ppm = seeded.ppm(seeded.rng(seed, "ppm"), self.image_size, self.image_size)

    def prepare(self, directory):
        for n, data in self.fields.items():
            with open(os.path.join(directory, f"f{n}.qsig"), "wb") as fh:
                fh.write(seeded.qsig_bytes(data, self.extent))
        with open(os.path.join(directory, "image.ppm"), "wb") as fh:
            fh.write(self.ppm)

    def fixtures_job(self, out_dir):
        return Job("fixtures", ["fixtures", "--out-dir", out_dir, "--grid", "64", "--extent", "6"],
                   lambda out: checks.fixture_files(out_dir, 6.0, 64),
                   (os.path.join(out_dir, "gaussian.qsig"),))

    def warmup(self, directory):
        return self.fixtures_job(os.path.join(directory, "fx"))

    def chain(self, directory, name, n, forward, inverse):
        """Forward transform of the seeded n^2 field to a file, then back."""
        src = os.path.join(self.inputs, f"f{n}.qsig")
        spec = os.path.join(directory, f"{name}.qsp")
        back = os.path.join(directory, f"{name}.qsig")
        want = self.fields[n]
        return [
            Job(f"{forward[0]}/{n}", [*forward, "--in", src, "--out", spec, *self.axes],
                lambda out: checks.spectrum_file(spec, n), (spec,)),
            Job(f"{inverse}/{n}", [inverse, "--in", spec, "--out", back, "--grid", str(n),
                                   "--extent", seeded.fmt(self.extent)],
                lambda out: checks.signal_matches(back, want), (back,)),
        ]

    def jobs(self, directory):
        groups = [[self.fixtures_job(os.path.join(directory, "fx"))]]
        groups.append(self.chain(directory, "a", 64,
                                 ["qft", "--side", self.sides[0], "--window", "8"], "iqft"))
        groups.append(self.chain(directory, "b", 256,
                                 ["qlct", "--side", self.sides[1], "--window", "12",
                                  *seeded.lct_flags(self.mats)], "iqlct"))
        groups.append(self.chain(directory, "c", 128,
                                 ["qfrft", "--side", self.sides[2], "--window", "10",
                                  f"--alpha={seeded.fmt(self.angles[0])}",
                                  f"--beta={seeded.fmt(self.angles[1])}"], "iqlct"))
        image = os.path.join(self.inputs, "image.ppm")
        img_sig = os.path.join(directory, "image.qsig")
        img_back = os.path.join(directory, "image.ppm")
        w = self.image_size
        groups.append([
            Job(f"img2qsig/{w}", ["img2qsig", "--in", image, "--out", img_sig],
                lambda out: checks.image_signal(img_sig, self.ppm, w, w), (img_sig,)),
            Job(f"qsig2img/{w}", ["qsig2img", "--in", img_sig, "--out", img_back],
                lambda out: checks.image_bytes(img_back, out, self.ppm), (img_back,)),
        ])
        for where, point, target in self.points:
            groups.append([Job(f"jump-demo/{where}", [
                "jump-demo", "--fixture", "indicator", f"--point={seeded.fmt3(point)}",
                "--M", ",".join(str(m) for m in self.sweep)],
                lambda out, where=where, target=target: checks.jump(out, self.sweep, where, target))])
        point, (eps1, eps2) = self.lc_point, self.lc_eps
        groups.append([Job("lc-diag", [
            "lc-diag", "--fixture", "gaussian", f"--point={seeded.fmt3(point)}",
            f"--eps1={seeded.fmt(eps1)}", f"--eps2={seeded.fmt(eps2)}", "--radius", "8"],
            lambda out: checks.lc_diag(out, point, eps1, eps2, 8.0))])
        n = self.variation_grid
        groups.append([Job(f"variation/{n}", [
            "variation", "--fixture", "indicator", "--grid", str(n),
            "--extent", seeded.fmt(self.variation_extent)], checks.variation_indicator)])
        return self.ordered(groups)


# -- library workload ----------------------------------------------------------

class FastPath:
    """In-process library calls on the FFT routes, in one long-lived worker."""

    pass_budget_s = 6.0
    extent = 8.0

    def __init__(self, seed, toy, work):
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.sizes = (64, 128) if toy else (512, 1024)
        g = seeded.rng(seed, "lct")
        self.mats = [seeded.lct_matrix(g), seeded.lct_matrix(g)]
        self.node_rng = seeded.rng(seed, "nodes")
        small, big = self.sizes
        specs = [{"kind": "qft_fast", "side": side, "n": n} for side in SIDES for n in self.sizes]
        specs.append({"kind": "qlct_via_qft", "mats": self.mats, "n": big})
        order = seeded.rng(seed, "order").permutation(len(specs))
        self.job_list = [self._with_nodes(specs[i]) for i in order]
        self.warm = self._with_nodes({"kind": "qft_fast", "side": "two", "n": small})
        self.proc = None
        self.job_id = 0
        self.installed = False

    def _with_nodes(self, spec):
        """Add seeded check nodes among the 32 central frequencies, where
        the spectrum is far from zero: a row of three along the axis that
        costs the oracle one pass over the field per node, and one across."""
        centre = spec["n"] // 2 - 16
        one = [centre + int(self.node_rng.integers(32))]
        three = sorted(centre + int(x) for x in self.node_rng.choice(32, 3, replace=False))
        spec["nodes"] = [three, one] if spec.get("side") == "left" else [one, three]
        return spec

    @staticmethod
    def label(spec):
        return (f"qft_fast/{spec['side']}/{spec['n']}" if spec["kind"] == "qft_fast"
                else f"qlct_via_qft/{spec['n']}")

    def _ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def _reply(self):
        timer = threading.Timer(JOB_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise SetupError(f"the library worker exited: {self._stderr()}")
        return json.loads(line)

    def _stderr(self):
        try:
            with open(os.path.join(self.work, "worker.err")) as fh:
                return fh.read()[-500:]
        except OSError:
            return ""

    def setup(self, rep):
        """One set-up: start a worker, which imports, samples and warms up."""
        self.close()
        config = {"seed": self.seed, "sizes": list(self.sizes), "extent": self.extent,
                  "warmup": self.warm}
        t0 = time.perf_counter()
        with open(os.path.join(self.work, "worker.err"), "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=self.env,
                cwd=self.work, text=True)
        ready = self._reply()
        seconds = time.perf_counter() - t0
        check_qharmonics_path(ready["qharmonics"])
        w = ready["warmup"]
        warm = Outcome("warmup", w["seconds"] or 0.0, w["ok"], _finite_margin(w["margin"]),
                       w["detail"], w["rss_kb"])
        return seconds, warm

    def run_pass(self, index, traced=False, corrupt=False):
        if traced and not self.installed:
            self._ask({"op": "install"})
            self.installed = True
        out = []
        for i, spec in enumerate(self.job_list):
            self.job_id += 1
            r = self._ask({"op": "job", "job": spec, "trace": traced, "job_id": self.job_id,
                           "corrupt": corrupt and i == 0})
            seconds = r["seconds"] if r["seconds"] is not None else 0.0
            out.append(Outcome(self.label(spec), seconds, r["ok"], _finite_margin(r["margin"]),
                               r["detail"], r["rss_kb"]))
        return out

    def spans(self):
        return self._ask({"op": "spans"})

    def close(self):
        if self.proc is None:
            return
        try:
            self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


WORKLOADS = {"quadrature": Quadrature, "fast_path": FastPath, "cli_batch": CliBatch}


# -- metrics -------------------------------------------------------------------

def tail(times):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  Below 22 samples that
    percentile would not be above the median, so the maximum is
    reported instead, at percentile 100."""
    xs = sorted(times)
    n = len(xs)
    if n < 22:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(setups, passes):
    good = [o.seconds for p in passes for o in p if o.ok]
    tail_value, pct, samples = tail(good) if good else (float("nan"), 0.0, 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(sum(o.seconds for o in p) for p in passes),
        "job_p50_s": statistics.median(good) if good else float("nan"),
        "job_tail_s": tail_value,
        "peak_rss_mb": statistics.median(max(o.rss_kb for o in p) for p in passes) / MB,
    }
    units = {"setup_s": "s", "pass_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB"}
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            {"percentile": pct, "samples": samples})


# name -> (unit, span name, field) for metrics read straight off the spans
SPAN_METRICS = {
    "fileio.load_s": ("s", "fileio.load", "s"),
    "fileio.save_s": ("s", "fileio.save", "s"),
    "grids.sample_s": ("s", "grids.sample", "s"),
    "grids.image_s": ("s", "grids.image", "s"),
    "grids.norm_s": ("s", "grids.norm", "s"),
    "quaternion.qmul_s": ("s", "quaternion.qmul", "s"),
    "quaternion.qmul_calls": ("count", "quaternion.qmul", "calls"),
    "quaternion.qmul_elems": ("count", "quaternion.qmul", "count"),
    "quaternion.mul_pure_s": ("s", "quaternion.mul_pure", "s"),
    "quaternion.qexp_pure_s": ("s", "quaternion.qexp_pure", "s"),
    "kernels.exp_contract_s": ("s", "kernels.exp_contract", "s"),
    "kernels.exp_contract_self_s": ("s", "kernels.exp_contract", "self_s"),
    "kernels.exp_contract_calls": ("count", "kernels.exp_contract", "calls"),
    "kernels.exp_contract_gflop": ("GFLOP", "kernels.exp_contract", "count"),
    "kernels.chirp_multiply_s": ("s", "kernels.chirp_multiply", "s"),
    "kernels.const_multiply_s": ("s", "kernels.const_multiply", "s"),
    "qft.qft_forward_s": ("s", "qft.qft_forward", "s"),
    "qft.qft_inverse_s": ("s", "qft.qft_inverse", "s"),
    "qft.qft_fast_s": ("s", "qft.qft_fast", "s"),
    "qft.qft_fast_self_s": ("s", "qft.qft_fast", "self_s"),
    "qft.qft_from_ft_s": ("s", "qft.qft_from_ft", "s"),
    "qlct.qlct_forward_s": ("s", "qlct.qlct_forward", "s"),
    "qlct.qlct_inverse_s": ("s", "qlct.qlct_inverse", "s"),
    "qlct.qlct_via_qft_s": ("s", "qlct.qlct_via_qft", "s"),
    "qlct.qfrft_s": ("s", "qlct.qfrft", "s"),
    "smoothing.sinc_s": ("s", "smoothing.sinc", "s"),
    "smoothing.eta_s": ("s", "smoothing.eta", "s"),
    "smoothing.lc_diag_s": ("s", "smoothing.lc_diag", "s"),
    "smoothing.gauss_mean_s": ("s", "smoothing.gauss_mean", "s"),
    "variation.hardy_s": ("s", "variation.hardy", "s"),
}

OTHER_METRICS = {
    "cli.import_s": "s", "cli.process_s": "s", "cli.main_self_s": "s", "cli.jobs": "count",
    "fileio.calls": "count", "fileio.bytes": "B", "fixtures.eval_points": "count",
    "check.worst_margin": "ratio", "trace.overhead_s": "s",
}


def _merge(totals, more):
    for name, vals in more.items():
        t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0.0})
        for key in t:
            t[key] += vals[key]


def per_layer(traced_passes, untraced_passes, all_outcomes, worker_dump):
    """Per-layer metrics, summed per traced pass.

    Returns (metrics, gone): a metric whose every traced function no
    longer exists is left out of `metrics` and explained in `gone`."""
    totals, dumps = {}, []
    cli = {"cli.import_s": 0.0, "cli.process_s": 0.0, "cli.main_self_s": 0.0, "cli.jobs": 0}
    for o in (o for p in traced_passes for o in p if o.trace):
        agg = spans.aggregate(o.trace["spans"])
        _merge(totals, agg)
        dumps.append(o.trace)
        main = agg.get("cli.main", {"s": 0.0, "self_s": 0.0})
        cli["cli.import_s"] += o.trace["import_s"]
        cli["cli.main_self_s"] += main["self_s"]
        cli["cli.process_s"] += o.seconds - o.trace["import_s"] - main["s"]
        cli["cli.jobs"] += 1
    if worker_dump is not None:
        _merge(totals, spans.aggregate(worker_dump["spans"]))
        dumps.append(worker_dump)
    missing = {name for dump in dumps for name in dump["missing"]}
    n_pass = len(traced_passes)
    metrics, gone = {}, {}
    all_sources = spans.span_sources()
    for name, (unit, span, key) in SPAN_METRICS.items():
        sources = all_sources[span]
        if all(src in missing for src in sources):
            gone[name] = "no longer exists: " + ", ".join(sources)
        else:
            metrics[name] = {"value": totals.get(span, {key: 0.0})[key] / n_pass, "unit": unit}
    load = totals.get("fileio.load", {"calls": 0, "count": 0.0})
    save = totals.get("fileio.save", {"calls": 0, "count": 0.0})
    values = dict(cli)
    values["fileio.calls"] = load["calls"] + save["calls"]
    values["fileio.bytes"] = load["count"] + save["count"]
    if "qharmonics.fixtures.FIXTURES" in missing:
        gone["fixtures.eval_points"] = "qharmonics.fixtures.FIXTURES no longer exists"
    else:
        values["fixtures.eval_points"] = sum(n for dump in dumps for _job, n in dump["eval_points"])
    for name, val in values.items():
        metrics[name] = {"value": val / n_pass, "unit": OTHER_METRICS[name]}
    metrics["check.worst_margin"] = {"value": max(o.margin for o in all_outcomes),
                                     "unit": "ratio"}
    overhead = (statistics.median(sum(o.seconds for o in p) for p in traced_passes)
                - statistics.median(sum(o.seconds for o in p) for p in untraced_passes))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, gone


# -- driver --------------------------------------------------------------------

def run(args, work):
    workload = WORKLOADS[args.workload](args.seed, args.toy, work)
    try:
        prov = provenance(workload.env, args.seed)
        outcomes, setups = [], []
        for rep in range(1 if args.trace else SETUP_REPS):
            seconds, warm = workload.setup(rep)
            setups.append(seconds)
            outcomes.append(warm)
        n_pass = max(1, round(args.seconds / workload.pass_budget_s))
        details = {"workload": args.workload, "provenance": prov, "passes": n_pass}
        if args.trace:
            n_plain = max(1, n_pass // 2)
            plain = [workload.run_pass(i) for i in range(n_plain)]
            traced = [workload.run_pass(n_plain + i, traced=True, corrupt=args.corrupt and i == 0)
                      for i in range(max(1, n_pass - n_plain))]
            dump = workload.spans() if isinstance(workload, FastPath) else None
            outcomes += [o for p in plain + traced for o in p]
            metrics, gone = per_layer(traced, plain, outcomes, dump)
            details.update(passes=len(plain) + len(traced), missing=gone,
                           untraced_pass_s=[sum(o.seconds for o in p) for p in plain],
                           traced_pass_s=[sum(o.seconds for o in p) for p in traced])
        else:
            passes = [workload.run_pass(i, corrupt=args.corrupt and i == 0)
                      for i in range(n_pass)]
            outcomes += [o for p in passes for o in p]
            metrics, tail_info = end_to_end(setups, passes)
            job_s = {}
            for o in (o for p in passes for o in p):
                job_s.setdefault(o.label, []).append(o.seconds)
            details.update(tail=tail_info, setups_s=setups, job_s=job_s,
                           pass_s=[sum(o.seconds for o in p) for p in passes])
    finally:
        workload.close()
    failed = [o for o in outcomes if not o.ok]
    details["fail_ratio"] = len(failed) / len(outcomes)
    details["failures"] = [f"{o.label}: {o.detail}" for o in failed[:10]]
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
              "metrics": metrics}
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first timed job's output before its check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qharmonics", "__init__.py")):
        print(f"bench: no qharmonics sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        details, result = run(args, work)
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
