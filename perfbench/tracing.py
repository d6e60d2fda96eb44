"""Per-layer tracing from outside the library.

A :class:`Tracer` wraps the library's public functions while it is
installed.  Each wrapper opens a span; a layer's self time is the span's
duration minus the time of the spans opened inside it.

Wrappers go on every module attribute that refers to a traced function,
because a module that did ``from .algebra import su11_generators`` calls its
own reference.  ``checks.run_suite`` is traced rather than the ``suite_*``
functions: ``checks.SUITES`` holds direct references to those, so wrapping
them would record nothing.  The CLI runners are private, so CLI formatting
and file output show up as the self time of ``cli.run``.
"""

import time
from contextlib import contextmanager

import focklat
from focklat import algebra, checks, cli, fock, lattice, specfun, states

MODULES = (focklat, algebra, checks, cli, fock, lattice, specfun, states)

# layer -> (module, attribute) of each function whose spans count toward it;
# a function the library no longer has is skipped and its layer reads zero
LAYERS = {
    "lattice.propagate": [(lattice, "propagate")],
    "lattice.compare_to_oracle": [(lattice, "compare_to_oracle")],
    "lattice.impulse_profile": [(lattice, "impulse_profile")],
    "fock.expm": [(fock, "expm")],
    "algebra.verify_bch": [(algebra, "verify_bch")],
    "algebra.rotation_conjugation_check": [(algebra, "rotation_conjugation_check")],
    "algebra.su11_generators": [(algebra, "su11_generators")],
    "states.ordered": [(states, "phase_state_perelomov"), (states, "bg_state_ordered"),
                       (states, "london_state_ordered")],
    "specfun.bessel_j_all": [(specfun, "bessel_j_all")],
    "checks.run_suite": [(checks, "run_suite")],
    "cli.run": [(cli, "run")],
    "cli.parse_args": [(cli, "parse_args")],
}
MATMUL_LAYER = "fock.matmul"

_MARK = "_perfbench_layer"


def installed_wrappers():
    """Names of every attribute that currently holds one of our wrappers."""
    found = [f"{module.__name__}.{name}" for module in MODULES
             for name, value in vars(module).items() if hasattr(value, _MARK)]
    found += [f"TruncatedOperator.{name}"
              for name, value in vars(fock.TruncatedOperator).items() if hasattr(value, _MARK)]
    return found


class Tracer:
    """Collects self time and call counts per layer while installed."""

    def __init__(self):
        self._patched = []
        self._open = []  # child time accumulated by each open span
        self.reset()

    def reset(self):
        self.self_s = {layer: 0.0 for layer in (*LAYERS, MATMUL_LAYER)}
        self.calls = dict.fromkeys(self.self_s, 0)
        self.samples = 0
        self.expm_dims = []

    def _observe(self, layer, args, result):
        if layer == "lattice.propagate":
            self.samples += len(result.z_grid)
        elif layer == "fock.expm":
            self.expm_dims.append(args[0].dim)

    def _wrap(self, layer, fn):
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self.self_s[layer] += span - self._open.pop()
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += span
            self._observe(layer, args, result)
            return result

        setattr(wrapper, _MARK, layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original)
                for owner in MODULES:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, name, wrapper)
        matmul = fock.TruncatedOperator.__matmul__
        self._patch(fock.TruncatedOperator, "__matmul__", self._wrap(MATMUL_LAYER, matmul))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        self._open.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def pass_metrics(self):
        """Per-layer figures of the spans recorded since the last reset."""
        out = {}
        for layer, seconds in self.self_s.items():
            out[f"{layer}.self_ms"] = 1e3 * seconds
            out[f"{layer}.calls"] = self.calls[layer]
        out["lattice.samples"] = self.samples
        out["lattice.propagate.ms_per_sample"] = (
            out["lattice.propagate.self_ms"] / self.samples if self.samples else 0.0)
        out["fock.expm.dim_mean"] = (
            sum(self.expm_dims) / len(self.expm_dims) if self.expm_dims else 0.0)
        return out
