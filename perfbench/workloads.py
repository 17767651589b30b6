"""Seeded inputs of the three benchmark workloads.

Every request list is a pure function of the ``--seed`` argument: the
program under test only ever sees the generated requests.  Kernels are built
here with the same cell count, phase binning and time grids that
``repro serve --grids 4`` registers, so the client can compute one-shot
reference fits for everything it sends; if the two ever drift apart the
correctness gate reports every response as a mismatch.
"""

from __future__ import annotations

import numpy as np

from repro.cellcycle.kernel import KernelBuilder
from repro.cellcycle.parameters import CellCycleParameters
from repro.data.synthetic import single_pulse_profile
from repro.service import FitRequest, SessionFactory, WorkloadSpec, build_workload

#: Grids and Monte-Carlo cells of ``repro serve --grids 4`` (``--cells``
#: keeps its default of 3000).
GRIDS = 4
CELLS = 3000
NUM_BASIS = 12
PHASE_BINS = 60

#: Fixed smoothing parameters and noise levels of the fixed-lambda traffic.
FIXED_LAMBDAS = (1e-3, 1e-2)
NOISE_LEVELS = (0.005, 0.02)

#: Distinct truth profiles per generated list.  Solve cost depends on the
#: profile shape (how many positivity rows bind), so a handful of shapes
#: would make one seed's workload much cheaper than another's; hundreds of
#: shapes average that out and keep runs on different seeds comparable.
SPECIES_VARIETY = 512


def build_stack(cells: int = CELLS, grids: int = GRIDS):
    """Kernels and session factory matching ``repro serve --grids 4``."""
    parameters = CellCycleParameters()
    simulator = KernelBuilder(parameters, num_cells=cells, phase_bins=PHASE_BINS)
    schedules = [
        np.linspace(0.0, 150.0 - 5.0 * index, max(8, 16 - index))
        for index in range(max(1, grids))
    ]
    kernels = [simulator.build(times, rng=index) for index, times in enumerate(schedules)]
    factory = SessionFactory(parameters=parameters, num_basis=NUM_BASIS, kernels=kernels)
    return kernels, factory


def warmup_requests(kernels, methods) -> list[FitRequest]:
    """One request per (grid, selection method): one per batch bucket.

    ``methods`` holds ``"fixed"`` and/or lambda-selection method names.  The
    content is the same for every seed, so set-up time does not depend on
    how hard one seed's warm-up fits happen to be, and its noise comes from
    a stream of its own, so no warm-up request repeats timed content.
    """
    rng = np.random.default_rng(7919)
    profile = single_pulse_profile(center=0.4, width=0.12, amplitude=1.5, baseline=0.2)
    requests = []
    for kernel in kernels:
        clean = kernel.apply_function(profile)
        for method in methods:
            values = clean + 0.01 * rng.normal(size=clean.size)
            fixed = method == "fixed"
            requests.append(
                FitRequest(
                    times=np.asarray(kernel.times, dtype=float).copy(),
                    measurements=values,
                    lam=FIXED_LAMBDAS[0] if fixed else None,
                    lambda_method="gcv" if fixed else method,
                )
            )
    return requests


def wire_fixed_requests(kernels, count: int, seed: int) -> list[FitRequest]:
    """Fixed-lambda requests over every grid, no repeats, no selection."""
    spec = WorkloadSpec(
        num_requests=int(count),
        repeat_ratio=0.0,
        selection_fraction=0.0,
        noise_levels=NOISE_LEVELS,
        lambdas=FIXED_LAMBDAS,
        species_variety=SPECIES_VARIETY,
        seed=int(seed),
    )
    return build_workload(kernels, spec)


def stream_mixed_requests(kernels, count: int, seed: int) -> list[FitRequest]:
    """The ``build_workload`` service mix: 30% exact repeats, 20% GCV."""
    spec = WorkloadSpec(
        num_requests=int(count),
        repeat_ratio=0.3,
        selection_fraction=0.2,
        noise_levels=NOISE_LEVELS,
        lambdas=FIXED_LAMBDAS,
        species_variety=SPECIES_VARIETY,
        seed=int(seed),
    )
    return build_workload(kernels, spec)


def batch_select_requests(kernels, count: int, seed: int, round_index: int) -> list[FitRequest]:
    """A quarter GCV, then half fixed-lambda, then a quarter k-fold; no repeats.

    Each round of the workload draws its own content (seeded by the run
    seed and the round index), so later rounds never hit the result cache.
    The shares are exact, every grid gets the same number of requests of
    each kind, and the list is grouped by kind, then grid.  The scheduler
    serves batch buckets in the order it first sees them and resolves a
    bucket's requests together, so with a shuffled list (or uneven grid
    counts) the median request would land in a different bucket from one
    round to the next.  Grouped, the median request is a fixed-lambda fit
    served after the GCV group, and the tail is the k-fold group at the end.
    """
    unit = max(1, int(count) // (4 * len(kernels)))
    requests: list[FitRequest] = []
    for rank, (method, quarters) in enumerate((("gcv", 1), ("fixed", 2), ("kfold", 1))):
        for grid, kernel in enumerate(kernels):
            spec = WorkloadSpec(
                num_requests=unit * quarters,
                repeat_ratio=0.0,
                selection_fraction=0.0,
                noise_levels=NOISE_LEVELS,
                lambdas=FIXED_LAMBDAS,
                species_variety=SPECIES_VARIETY,
                seed=((int(seed) * 1000 + int(round_index)) * 16 + grid) * 4 + rank,
            )
            group = build_workload([kernel], spec)
            if method != "fixed":
                for request in group:
                    request.lam, request.lambda_method = None, method
            requests.extend(group)
    return requests
