"""Spans around the calls between ising_density's modules, taken from outside.

Nothing under ``src/`` is changed.  Before the CLI runs, the names that the
modules call each other through are replaced by timing wrappers:

* the library functions imported into ``ising_density.cli`` (every library
  call a command makes goes through one of them);
* ``numpy.linalg.eigvalsh`` and ``build_hamiltonian`` as seen by ``model``
  (``model`` gets its own view of ``numpy``);
* ``curve_peaks`` as seen by ``curves``;
* ``GaussianMixture.density_curve`` and ``degeneracy_census`` in ``peaks``;
* ``cells`` and ``count_Na``/``count_Nb``/``count_Nc`` in ``peaks`` and
  ``integrate_phi`` in ``analytic``, which are called too often for a span
  each and are only counted.

A span is ``[name, parent, start, end, attrs]`` with ``parent`` the index of
the enclosing span, or -1 when the command called it directly.  Spans stay in
memory and are written out as one JSON file when the process exits.
"""

import functools
import json
import time


class Recorder:
    """In-memory spans and call counts of one CLI process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)``
        may add sizes of the work done."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return wrapper

    def count(self, name, fn, items=None):
        """Wrap ``fn`` so each call adds 1 to ``<name>.calls`` and, with
        ``items``, the size of its result to ``<name>.items``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            if items is not None:
                counts[name + ".items"] = counts.get(name + ".items", 0) + items(result)
            return result

        return wrapper


class _View:
    """Stand-in for a module: the given attributes replaced, the rest forwarded."""

    def __init__(self, module, **replaced) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


# Library names imported into ising_density.cli, by the span name they get.
CLI_CALLS = {
    "exact_spectrum": "model.exact_spectrum",
    "numeric_moments": "model.numeric_moments",
    "analytic_moments": "model.analytic_moments",
    "enumerate_spectrum": "fermion.enumerate_spectrum",
    "histogram": "curves.histogram",
    "kernel_density": "curves.kernel_density",
    "compare": "curves.compare",
    "read_curve_csv": "curves.read_curve_csv",
    "write_curve_csv": "curves.write_curve_csv",
    "tfim_mixture_components": "peaks.components",
    "strong_field_components": "peaks.components",
    "small_lambda_components": "peaks.components",
    "generic_alpha_components": "peaks.components",
    "visibility_Nmax": "peaks.visibility_Nmax",
    "block_census": "blocks.block_census",
    "degeneracy_census": "blocks.degeneracy_census",
    "saddle_density_extensive": "analytic.saddle",
    "gaussian_density_tfim": "analytic.gaussian",
    "gaussian_density_two_fields": "analytic.gaussian",
    "tail_density_critical": "analytic.tail",
}

# Sizes of the work a span did, taken from its arguments and result.
ATTRS = {
    "model.eigvalsh": lambda args, result: {"n": int(args[0].shape[0])},
    "fermion.enumerate_spectrum": lambda args, result: {"levels": len(result.energies)},
    "curves.kernel_density": lambda args, result: {
        "pairs": len(args[0].energies) * len(result.grid)
    },
    "curves.write_curve_csv": lambda args, result: {"rows": len(args[0].grid)},
    "curves.read_curve_csv": lambda args, result: {"rows": len(result[0].grid)},
    "peaks.components": lambda args, result: {"components": len(result.components)},
    "peaks.density_curve": lambda args, result: {
        "pairs": len(args[0].components) * len(result.grid)
    },
}


def install(rec: Recorder) -> None:
    """Replace the cross-module names listed in the module docstring."""
    import numpy

    import ising_density.analytic as analytic
    import ising_density.cli as cli
    import ising_density.curves as curves
    import ising_density.model as model
    import ising_density.peaks as peaks

    def wrap(owner, attr, name):
        setattr(owner, attr, rec.span(name, getattr(owner, attr), ATTRS.get(name)))

    for attr, name in CLI_CALLS.items():
        wrap(cli, attr, name)
    # Only model's view of numpy changes: quadrature rules also call eigvalsh.
    eigvalsh = rec.span("model.eigvalsh", numpy.linalg.eigvalsh, ATTRS["model.eigvalsh"])
    model.np = _View(numpy, linalg=_View(numpy.linalg, eigvalsh=eigvalsh))
    wrap(model, "build_hamiltonian", "model.build_hamiltonian")
    wrap(curves, "curve_peaks", "curves.curve_peaks")
    wrap(peaks.GaussianMixture, "density_curve", "peaks.density_curve")
    wrap(peaks, "degeneracy_census", "blocks.degeneracy_census")
    peaks.cells = rec.count("blocks.cells", peaks.cells, items=len)
    for attr in ("count_Na", "count_Nb", "count_Nc"):
        setattr(peaks, attr, rec.count("blocks.transition_count", getattr(peaks, attr)))
    analytic.integrate_phi = rec.count("analytic.integrate_phi", analytic.integrate_phi)


def run(path: str, argv: list[str]) -> None:
    """Import and run the CLI with ``argv``; write the trace to ``path``."""
    rec = Recorder()
    start = time.perf_counter()
    from ising_density.cli import main

    imported = time.perf_counter()
    install(rec)
    main_start = time.perf_counter()
    try:
        main(args=argv, prog_name="ising-density")
    finally:
        main_end = time.perf_counter()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "import_s": imported - start,
                    "main_s": main_end - main_start,
                    "spans": rec.spans,
                    "counts": rec.counts,
                },
                handle,
            )
