"""Exact tools for quintic trinomials x^5 + ax + b with a root in a given field.

Layers, bottom up: exact rational polynomials (qpoly), factorization
over Q (factor), quintic field arithmetic and exact root-in-field
decisions (numberfield), trinomial equivalence and families (trinomial),
the classifying projective curve and its point search (curve), the
sextic surface of fields with extra trinomials (surface), and
Weierstrass curve utilities (elliptic).  Certified complex roots (roots)
stand alone: no other module uses them, and the package does not import
them, so that importing it does not load mpmath.  Import
`quintic_trinomials.roots` by its own path.
"""

from .qpoly import UniPoly, resultant, discriminant, count_real_roots
from .factor import Factorization, factor_over_Q, is_irreducible, fifth_power_class
from .numberfield import (NumberField, FieldElement, RootSearchResult,
                          has_root_in_field, charpoly_mod)
from .trinomial import (Trinomial, ScaledTrinomial, EquivClass, TrinomialPair,
                        equiv_class, normalize_t_form, trinomial_disc,
                        galois_type_heuristic, weber_family, dihedral_family,
                        sw2_family, two_trinomial_family, NotTForm)
from .curve import (CurvePoint, TrinomialCurve, GeneralCurve, PointImage,
                    SearchResult, DegeneratePoint, curve_from_t, curve_from_field,
                    point_search, general_point_search, point_to_trinomial,
                    trinomial_to_point, field_L_polynomial)
from .surface import (SURFACE_FORM, on_surface, recover_t, t_parts, rational_curve,
                      line_point, consistency_with_curve, eliminate_t_from_curve_forms,
                      LINE_NAMES, CURVE_NAMES)
from .elliptic import (WeierstrassCurve, E0, E_TWIST_MINUS10, j_invariant,
                       quadratic_twist, quadratic_twist_factor)

__version__ = "0.1.0"
