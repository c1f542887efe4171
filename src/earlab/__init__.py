"""Convex-ear decompositions of poset order complexes, verified exactly.

The package builds ear decompositions for five input classes (supersolvable
lattices, rank-selected Boolean and supersolvable lattices, face posets of
shellable complexes, geometric lattices), certifies every ear as a shelled
ball or sphere, checks the four decomposition axioms combinatorially, and
derives the h-vector, g-vector, and flag-vector consequences with exact
integer arithmetic throughout.
"""

__version__ = "0.1.0"
