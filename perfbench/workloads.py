"""The benchmark's fixed verify configurations.

Each workload isolates a different layer of the checker (see README.md):

- ``subproduct-grid6``: many small partition maps, so the poset logic and the
  partition-map cache dominate;
- ``product-glue16``: a 16-dimensional product system, so the ``algebra`` and
  ``gns`` suites (GNS, brute-force Gram oracle, functional tensors) dominate;
- ``dense-d3``: few partitions but dense maps of dimension 6561, so dense
  superoperator algebra and memory dominate.

The seed only reaches the random elements of the suites; the checked
identities, their parameters and their pass/fail pattern do not depend on it.
"""
from __future__ import annotations

import copy

ALL_SUITES = ["axioms", "partition", "dilation", "algebra", "gns", "commutative", "morphism"]

WORKLOADS = {
    "subproduct-grid6": {
        "grid": ["1", "2", "3", "4", "5", "6"],
        "system": {"kind": "diagonal", "d": 2},
        "unit": {"kind": "standard"},
        "counit": {"kind": "standard"},
        "suites": ALL_SUITES,
        "tolerance": 1e-9,
        "max_interior_points": 4,
        "dim_cap": 4096,
    },
    "product-glue16": {
        # Two cells of dimension 4: the pair (1, 3) carries M_16.  That one
        # pair costs about 12 s of the algebra suite, so the grid is kept at
        # three points and two cold verifies fit in a measuring window.
        "grid": ["1", "2", "3"],
        "system": {"kind": "glue_hilbert", "cell_dims": [4, 4]},
        "unit": {"kind": "standard"},
        "counit": {"kind": "standard"},
        "suites": ALL_SUITES,
        "tolerance": 1e-9,
        "max_interior_points": 4,
        "dim_cap": 65536,
    },
    "dense-d3": {
        "grid": ["1", "2", "3", "4", "5"],
        "system": {"kind": "diagonal", "d": 3},
        "unit": {"kind": "standard"},
        "counit": {"kind": "standard"},
        "suites": ["partition", "dilation"],
        "tolerance": 1e-9,
        "max_interior_points": 3,
        "dim_cap": 8192,
    },
}

# Negative control, run untimed beside every workload: the shipped oracle
# configuration with one comultiplication entry bumped.  It must exit 1 with
# exactly its pinned failing records.  The gns suite is left out because on
# this system ``gns_system`` raises ValueError instead of reporting failing
# records, so ``verify`` ends in a traceback without a report.
NEGATIVE_CONTROL = "oracle-perturbed"
CONTROL_CONFIG = {
    "grid": ["1", "2", "3", "4"],
    "system": {"kind": "diagonal", "d": 2},
    "unit": {"kind": "standard"},
    "counit": {"kind": "standard"},
    "suites": [s for s in ALL_SUITES if s != "gns"],
    "tolerance": 1e-9,
    "max_interior_points": 4,
    "dim_cap": 4096,
    "perturb_delta": {"epsilon": 1e-3},
}


def config_for(name: str, seed: int) -> dict:
    """The raw JSON config of a workload (or of the negative control) with the seed injected."""
    base = CONTROL_CONFIG if name == NEGATIVE_CONTROL else WORKLOADS[name]
    cfg = copy.deepcopy(base)
    cfg["seed"] = int(seed)
    return cfg
