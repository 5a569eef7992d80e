"""Verification toolkit for the quaternionic cubic form on R^12.

The package is organized bottom-up:

    eigen        self-contained Jacobi eigensolver (reference oracle)
    quaternions  the Hamilton sign table, products, 4x4 structure matrices
    symspace     the 78-dim space of symmetric 12x12 matrices, trace split
    sampling     seeded generator streams used by every sweep
    numdiff      central finite differences
    cubic        the cubic form, direction matrices, closed-form spectra
    hessian      the degree-2 potential w, its Hessian map, witness bounds
    cones        eigenvalue-ratio cones, duality, the support gauge x
    elliptic     the graph sample, the operator F, ellipticity/viscosity probes
    cli          the `qcubic` command-line driver
"""

__version__ = "0.1.0"
