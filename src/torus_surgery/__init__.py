"""Exact-arithmetic toolkit for twist surgeries on coordinate 4-tori in
the 6-torus: symbolic verification of the underlying differential-form
identities and integer homology of the resulting family of manifolds."""

__version__ = "0.1.0"
