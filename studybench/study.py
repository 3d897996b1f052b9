"""Run one crossedprod CLI study in this fresh interpreter and record it.

    python3 studybench/study.py RESULT_JSON TRACE(0|1) -- <crossedprod args>

The first thing timed is ``import crossedprod.cli``, before this script
imports anything the package would otherwise pay for itself.  Then
``crossedprod.cli.main`` runs on the arguments, optionally traced, and one
JSON record goes to RESULT_JSON: exit code, setup and main wall time, CPU
time, peak RSS, package provenance and, when traced, spans and counters.
Untraced, a small fixed probe kernel is timed many times just before and
just after ``cli.main``, and once every 20 ms during it from a timer
signal; its times say how fast the host ran this process.  ``main_s`` is
the time inside ``cli.main`` less the probes run during it.
"""

import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
PROBE_REPS = 60  # before and after cli.main


def main(argv):
    result_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)

    start = time.perf_counter()
    import crossedprod.cli as cli

    setup_s = time.perf_counter() - start

    import json
    import resource
    import traceback

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    probe = None if tracer else Probe()
    if probe:
        probe.repeat(PROBE_REPS)
        probe.start()
    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a traceback is a study failure to report
        code = None
        error = traceback.format_exc()
    main_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    if probe:
        in_main = probe.stop()
        main_s -= in_main
        cpu_s -= in_main
        probe.repeat(PROBE_REPS)

    import crossedprod

    record = {
        "exit": code,
        "error": error,
        "setup_s": setup_s,
        "main_s": main_s,
        "cpu_s": cpu_s,
        "probe_s": probe.times if probe else None,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(crossedprod),
        "trace": tracer.to_json() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(record, fh)


class Probe:
    """Times a fixed kernel of interpreter and LAPACK work, on demand or by timer.

    The host slows tuple code and LAPACK unequally, so the kernel mixes
    both: about 0.25 ms of tuple and dict work and two 40x40 eigensolves,
    about 0.45 ms in all on a quiet 2-core Xeon.
    """

    def __init__(self):
        import numpy

        self.eigvalsh = numpy.linalg.eigvalsh
        a = numpy.arange(40 * 40, dtype=float).reshape(40, 40) % 7.0
        self.matrix = a + a.T
        self.eigvalsh(self.matrix)  # the first call loads LAPACK
        self.times = []
        self.in_main = 0.0

    def once(self):
        start = time.perf_counter()
        table = {}
        for i in range(500):
            w = (i % 5, i % 3, -(i % 4))
            table[w] = table.get(w[:2], 0) + len(w + w[1:])
        self.eigvalsh(self.matrix)
        self.eigvalsh(self.matrix)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def repeat(self, n):
        for _ in range(n):
            self.once()

    def _tick(self, signum, frame):
        self.in_main += self.once()

    def start(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        """Stop the timer; return the seconds its probes took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return self.in_main


def provenance(crossedprod):
    """Package and numeric-library versions as loaded in this process."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "crossedprod": crossedprod.__version__,
        "ordering": crossedprod.ORDERING_VERSION,
        "backend": crossedprod.BACKEND,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
    }


def blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


if __name__ == "__main__":
    main(sys.argv[1:])
