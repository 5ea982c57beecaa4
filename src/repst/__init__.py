"""Exact interpolation of symmetric-group representation data to a formal
complex rank, cross-checked against classical S_n computations.

Modules by topic:

  exact       big-rational polynomials in t, binomial-coefficient basis,
              truncated multivariate power series
  partitions  Young diagram primitives and the cycle-type format
  snoracle    classical S_n dimensions, characters, class sums (the oracle)
  deligne     dimension polynomials, corner-move tensor rule, central-element
              eigenvalues at formal rank
  schurweyl   complex tensor powers, graded decomposition, highest-weight
              degeneration candidates
  groupalg    Hilbert coefficients of the filtered group algebra
  bounds      exact dimension lower bounds
  verify      batch identity sweeps used by the CLI and the acceptance tests
  cli         the `repst` command, the only writer of the JSON wire format

The root holds only __version__; import names from their submodules.
"""

__version__ = "0.1.0"
