"""g2kit: exact flat G2 linear algebra, torus orbifolds, and model numerics.

Subpackage map:

- forms: exact exterior algebra over Q, the flat G2 form and the
  coassociative-plane test;
- torus: affine torus maps, finite group closure, fixed loci,
  end counting, pulls and cross sections, involution censuses;
- betti: Betti bookkeeping for quotients, resolutions, moduli
  dimensions, holonomy classification, building-block arithmetic;
- eguchi_hanson: the scale-s ALE metric on the chart away from the
  exceptional set, Ricci and curvature probes, scaling experiments;
- flow: mode-truncated linearization of the cylindrical decay flow,
  hyperbolic splitting, seeded nonlinear decay trials;
- poincare: exact primitives of exact forms on a cylinder over a
  torus, with norm-ratio studies under mode refinement;
- scenarios / cli: named reproduction scenarios and the g2kit
  command line front end.
"""

from .errors import G2KitError

__version__ = "0.1.0"

__all__ = ["G2KitError", "__version__"]
