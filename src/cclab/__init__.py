"""Numerical laboratory for constant-rank differential operators on the torus.

The package bundles:

* exact symbol algebra for l-homogeneous constant-coefficient operators
  (kernel projections, constant-rank checks),
* periodic grid fields and sparse trigonometric polynomials with exact
  product/integral arithmetic,
* a function-space toolbox (Zygmund / Orlicz / negative Sobolev / fractional
  and local Hardy norms),
* Helmholtz-type decompositions relative to an operator,
* quasiaffinity tests and weak-continuity pairing experiments,
* Lipschitz truncation via Whitney extension,
* a bank of concentration / oscillation counterexample families, and
* harmonic extension experiments to the upper half space.
"""

__version__ = "0.1.0"
