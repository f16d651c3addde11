"""Bound states of a straight 2D strip with mixed Dirichlet/Neumann walls.

The package computes the discrete spectrum (eigenvalues below the
essential-spectrum threshold mu = pi^2/(4 d^2)) of the Laplacian on an
infinite strip of width d whose boundary conditions switch between
Dirichlet and Neumann at two points x = -delta and x = +delta.  Two
switch layouts are supported:

* model A: Dirichlet on the bottom wall for x < -delta and on the top
  wall for x > delta, Neumann elsewhere;
* model B: Dirichlet on the top wall for |x| > delta, Neumann elsewhere.

Sub-modules:

* ``geometry``    -- models, transverse mode bases, overlap integrals
* ``bounds``      -- closed-form bracketing of state counts and eigenvalues
* ``variational`` -- analytic window thresholds and the model-B certificate
* ``roots``       -- the states of a sector as Brent roots of its junction level
* ``modematch``   -- interface-matching eigenvalue solver (production path)
* ``fdm_oracle``  -- finite-difference cross-check, reduced to its end columns
* ``analysis``    -- diagnostics: corner exponent, monotonicity, scaling
* ``cli``         -- the ``wavebound`` command-line tool

Importing the package defaults OpenBLAS and OpenMP to one thread: every
dense kernel here is small, and more threads only contend for the cores
(the sweep's worker pool most of all).  A value already set in the
environment wins, and the default has no effect when numpy was imported
before this package.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
