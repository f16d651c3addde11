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
* ``modematch``   -- interface-matching eigenvalue solver (production path)
* ``fdm_oracle``  -- finite-difference cross-check with transparent ends
* ``analysis``    -- diagnostics: corner exponent, monotonicity, scaling
* ``cli``         -- the ``wavebound`` command-line tool
"""

__version__ = "0.1.0"
