"""Exact tools for quintic trinomials x^5 + ax + b with a root in a given field.

Layers, bottom up: exact rational polynomials (qpoly), factorization
over Q (factor), quintic field arithmetic and exact root-in-field
decisions (numberfield), trinomial equivalence and families (trinomial),
the classifying projective curve and its point search (curve), the
sextic surface of fields with extra trinomials (surface), and
Weierstrass curve utilities (elliptic).  Certified complex roots (roots)
stand alone: no other module uses them.  The package re-exports no
names and imports no module: import each by its own path, as in
`from quintic_trinomials.curve import point_search`, which loads only
that module and the layers below it.
"""

__version__ = "0.1.0"
