"""Finite-level two-parameter C*-subproduct/product systems.

Interval partitions with exact rational cut points index every construction:
partition algebras, refinement and unit-padded connecting maps, germ
representations of the dilated systems, co-units and their idempotent germ
states, GNS-derived Hilbert-space systems, and a fully exact commutative
model of finite sets with rational measures.  The ``verify`` CLI runs the
identity-check suites from a JSON configuration.  The package root exports
nothing: import from the submodules.
"""
