"""Work the benchmark runs in fresh child processes.

    python3 child.py facts              print machine facts as JSON
    python3 child.py setup CONFIG       import, parse, build H, prepare psi0
    python3 child.py traced CONFIG OUTDIR SPANS
                                        ``mprabi run CONFIG`` with every public
                                        function of the package wrapped in a
                                        span; spans go to SPANS as JSON

The package is found through PYTHONPATH, which the parent points at the
checkout's ``src``.  Nothing here edits the package: tracing replaces the
module attributes at run time only.
"""

import json
import os
import sys
import time
import types

#: modules whose public functions become spans, in import order
LAYERS = ("fockmath", "model", "rwa", "dynamics", "config", "runner", "cli")

#: functions called tens of thousands of times per run: counted, not spanned,
#: so that wrapper cost stays small; their time lands in the caller's self time
COUNT_ONLY = ("fockmath.laguerre_poly", "fockmath.laguerre_transition")

#: closure inside evolve_numeric that takes one sample; timed through a
#: profile hook, since it cannot be wrapped from outside
SAMPLE_SPAN = "dynamics.evolve_numeric.sample"


def facts() -> dict:
    """What the process sees: interpreter, numpy, BLAS and its thread count."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    cpu_model = None
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
        for line in info:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def setup(config_path: str) -> None:
    """The work a run does before its first propagation step."""
    import mprabi.cli  # noqa: F401  (the import ``mprabi run`` pays)
    from mprabi.config import parse_config
    from mprabi.dynamics import InitialStateSpec, prepare_initial
    from mprabi.fockmath import FockSpace
    from mprabi.model import build_full
    from mprabi.runner import resolve_params

    with open(config_path, encoding="utf-8") as handle:
        config = parse_config(handle.read())
    params, _ = resolve_params(config)
    space = FockSpace(config.n_max)
    prepare_initial(
        InitialStateSpec(config.initial_kind, config.n_photons, config.mean_photons),
        params,
        space,
    )
    build_full(params, space)


class Tracer:
    """Spans (id, parent, name, start, end) and call counts, held in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [0]
        self._next_id = 1

    def open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((span_id, self._stack[-1], name, start, end))

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span_id = self.open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id, name, start, time.perf_counter())

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def with_sample_spans(self, fn, sample_code):
        """``fn`` with each call of ``sample_code`` made into a span, through a
        profile hook that is on only while ``fn`` runs."""
        open_spans = []

        def hook(frame, event, arg):
            if frame.f_code is not sample_code:
                return
            if event == "call":
                open_spans.append((self.open(), time.perf_counter()))
            elif event == "return":
                span_id, start = open_spans.pop()
                self.close(span_id, SAMPLE_SPAN, start, time.perf_counter())

        def wrapper(*args, **kwargs):
            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return wrapper


def install(tracer: Tracer, modules: dict) -> None:
    """Replace each public function of the layers, wherever it is bound."""
    evolve_code = modules["dynamics"].evolve_numeric.__code__
    sample_code = next(
        (c for c in evolve_code.co_consts if getattr(c, "co_name", None) == "sample"), None
    )
    replaced = {}
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                replaced[id(fn)] = tracer.counter(name, fn)
                continue
            target = fn
            if name == "dynamics.evolve_numeric" and sample_code is not None:
                target = tracer.with_sample_spans(fn, sample_code)
            replaced[id(fn)] = tracer.span(name, target)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])


def traced(config_path: str, outdir: str, spans_path: str) -> int:
    import importlib

    tracer = Tracer()
    span_id = tracer.open()
    start = time.perf_counter()
    import mprabi.cli  # noqa: F401

    tracer.close(span_id, "cli.import", start, time.perf_counter())
    modules = {layer: importlib.import_module(f"mprabi.{layer}") for layer in LAYERS}
    install(tracer, modules)
    try:
        code = modules["cli"].main(["run", config_path, "--output-dir", outdir])
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


def main(argv) -> int:
    mode = argv[0] if argv else ""
    if mode == "facts" and len(argv) == 1:
        print(json.dumps(facts()))
        return 0
    if mode == "setup" and len(argv) == 2:
        setup(argv[1])
        return 0
    if mode == "traced" and len(argv) == 4:
        return traced(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
