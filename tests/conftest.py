"""Shared fixtures: a five-service catalog, a three-type VM catalog,
helpers for planting separated workload modes, and one for editing a
JSON document in place."""

import numpy as np
import pytest

from packwise import ServiceCatalog, SyntheticSpec, VmType, generate_trace


@pytest.fixture
def five_service_catalog():
    """Five services, three resource dimensions."""
    return ServiceCatalog(np.array([
        [1.0, 1.0, 2.0],
        [1.0, 2.0, 1.0],
        [2.0, 1.0, 2.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 1.0],
    ]))


@pytest.fixture
def three_vm_catalog():
    return [
        VmType("small", np.array([200.0, 200.0, 300.0]), 1.0),
        VmType("medium", np.array([300.0, 400.0, 300.0]), 1.6),
        VmType("large", np.array([600.0, 600.0, 700.0]), 2.9),
    ]


def separated_centers(rng, modes=10, services=5, low=20, high=220, min_dist=80.0):
    """Planted mode centers with a minimum pairwise separation, so the
    modes are actually identifiable at the noise levels used in tests."""
    while True:
        centers = rng.integers(low, high + 1, size=(modes, services)).astype(float)
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        if modes == 1 or d[~np.eye(modes, dtype=bool)].min() >= min_dist:
            return centers


def planted_trace(catalog, run_seed, modes=10, periods=100, sigma_frac=0.05):
    """A trace from separated planted modes; returns (trace, centers, sigma)."""
    rng = np.random.default_rng(run_seed)
    centers = separated_centers(rng, modes=modes, services=catalog.service_count)
    sigma = sigma_frac * float(centers.mean())
    spec = SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                         periods=periods, seed=run_seed + 10_000)
    return generate_trace(spec, catalog), centers, sigma


def tiny_instance(seed):
    """A small random packing problem (S<=3 services, <=2 VM types, 1-2
    dimensions) that is feasible by construction: every service fits alone
    on every type, so one instance per service always works within three
    slots."""
    from packwise import DemandVector

    rng = np.random.default_rng(seed)
    S = int(rng.integers(1, 4))
    T = int(rng.integers(1, 3))
    d = int(rng.integers(1, 3))
    caps = rng.uniform(5.0, 30.0, size=(T, d)).round(1)
    costs = rng.uniform(1.0, 5.0, size=T).round(2)
    vm_catalog = [VmType(f"t{j}", caps[j], float(costs[j])) for j in range(T)]
    per_dim = rng.uniform(0.1, 0.5, size=(S, d)) * caps.min(axis=0)
    demand = DemandVector(per_dim)
    return demand, vm_catalog


def set_in(doc, keys, value):
    """doc with the value that keys lead to replaced by value."""
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc
