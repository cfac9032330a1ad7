"""Exact-arithmetic classification of Gorenstein quotients of the plane.

Modules:
  cyclotomic    exact sums of roots of unity: the surfaces solver's field
  lattice       ADE Dynkin types, dual-graph recognition, blow-down calculus
  fpgroups      coset enumeration, Smith normal form, transform-free abelianization
  plane_action  monomial actions on P^2 in exponents, quotient profiles
  surfaces      weighted hypersurfaces, germ and fibre bookkeeping
  classifier    cover filters, quotient enumeration, the final report
  cli           JSON command-line front end
"""

__version__ = "0.1.0"
