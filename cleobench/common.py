"""Process plumbing shared by the workloads: the checkout's sources, the
workload inputs, a scratch directory per run, the Spark session, the
machine record, percentiles and the timed-round loop."""
from __future__ import annotations

import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# ``PYTHONHASHSEED`` of every run. ``Cluster.instance_inputs`` draws input
# sizes while iterating a set of input names, whose order follows the
# hash seed, so a fixed value is what makes the generated logs the same
# in every process.
HASH_SEED = "1"

# Spark settings of the test session in ``conftest.py`` (shuffle
# partitions, Arrow, broadcast joins off); AQE stays at Spark's default.
SPARK_CORES = 4
SPARK_DRIVER_MEMORY = "2g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def use_checkout_sources() -> None:
    """Import ``repro`` from ``<checkout>/src``, in this process and in
    Spark's Python workers; stop if the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"cleobench: program sources not found under {SRC}")
    sys.path.insert(0, SRC)
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *rest])


def fix_hash_seed() -> None:
    """Re-run this process under ``PYTHONHASHSEED=HASH_SEED``."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def production_cluster(name: str):
    """The ``ClusterConfig`` of one of the production clusters."""
    from repro.scope.workload import PRODUCTION_CLUSTERS

    return next(c for c in PRODUCTION_CLUSTERS if c.name == name)


class Scratch:
    """A fresh directory inside the checkout for everything a run writes
    besides its trace: the experiment cache (``REPRO_CACHE``), temporary
    files and Spark's local directory. Removed when the run ends."""

    def __init__(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.tmp = os.path.join(self.path, "tmp")
        self.cache = os.path.join(self.path, "cache")
        self.spark = os.path.join(self.path, "spark")
        for d in (self.tmp, self.cache, self.spark):
            os.makedirs(d)
        os.environ["REPRO_CACHE"] = self.cache
        os.environ["TMPDIR"] = self.tmp
        tempfile.tempdir = self.tmp

    def remove(self) -> None:
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)


class SparkProcess:
    """One local SparkSession whose JVM is stopped and waited for on
    :meth:`stop`, so no JVM outlives the run."""

    def __init__(self, scratch: Scratch):
        cores = min(SPARK_CORES, os.cpu_count() or 1)
        self.master = f"local[{cores}]"
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {self.master} --driver-memory {SPARK_DRIVER_MEMORY} "
            f"--driver-java-options -Djava.io.tmpdir={scratch.tmp} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "pyspark-shell"
        )
        from pyspark.sql import SparkSession

        builder = SparkSession.builder.appName("cleobench").config(
            "spark.local.dir", scratch.spark)
        for key, value in SPARK_CONF.items():
            builder = builder.config(key, value)
        self.session = builder.getOrCreate()
        self.session.sparkContext.setLogLevel("ERROR")
        self._proc = self.session.sparkContext._gateway.proc

    def settings(self) -> dict:
        conf = self.session.conf
        return {
            "master": self.master,
            "driver_memory": SPARK_DRIVER_MEMORY,
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "auto_broadcast_join_threshold": conf.get(
                "spark.sql.autoBroadcastJoinThreshold"),
            "adaptive_enabled": conf.get("spark.sql.adaptive.enabled"),
        }

    def stop(self) -> None:
        from pyspark import SparkContext

        self.session.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        # The gateway JVM exits when its stdin closes.
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def machine(seed: int) -> dict:
    """Machine and software the run measured on."""
    import duckdb
    import numpy
    import pandas
    import pyspark

    mem_kib = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None  # a checkout without git metadata
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gib": round(mem_kib / 2**20, 2) if mem_kib else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "git_revision": rev,
        "seed": seed,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this (the driver) process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def timed_rounds(seconds: float, one_round) -> list[tuple[float, object]]:
    """Run whole rounds until ``seconds`` have passed, at least one.
    Returns ``(wall seconds, round result)`` per round."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = one_round()
        out.append((time.perf_counter() - t0, result))
        if time.perf_counter() - start >= seconds:
            return out
