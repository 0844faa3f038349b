"""Exact-arithmetic toolkit for specializations of covers of the line.

Submodules:

  fields      rationals, GF(p) and GF(p^f) coefficient domains
  poly        dense univariate polynomials, resultants, discriminants
  factor      factorization over finite fields and over the rationals
  covers      bivariate covers P(T, Y), classical families, good primes
  specialize  factorization patterns, etale algebras, residue degrees
  twist       finite model of the twisting criterion and its verifier
  search      Hilbert-Grunwald arithmetic-progression search
  census      exhaustive finite-field pattern censuses and realizations
  parsing     polynomial expression grammar and canonical printing
  cli         the `coverspec` command-line front end
"""

__version__ = "0.1.0"

from .fields import QQ, ExtField, PrimeField, finite_field
from .poly import Polynomial, PolyRing, discriminant, poly_gcd, resultant
from .factor import factor_ff, factor_z, is_irreducible_ff
from .covers import (
    BivariateCover, FamilyTag, constant_c, is_morse,
    make_morse_cover, make_trinomial_alt, make_trinomial_general,
    make_trinomial_simple, reduce_mod)
from .specialize import (
    EtaleAlgebraDescriptor, Partition, etale_algebra, fiber_patterns,
    residue_degrees_at, specialize_pattern)
from .twist import (
    ExtensionDatum, FiniteGroup, GroupHom, Perm, coset_action,
    etale_from_action, galois_rep_of_algebra, twisted_action,
    verify_twisting_lemma)
from .search import (
    ProgressionResult, SearchSpec, certify_sn, grunwald_search,
    local_solutions, standard_trick_primes)
from .census import (
    CensusReport, census, density_check, realize_by_morse,
    realize_by_trinomial)
from .numutil import crt
from .parsing import parse_bivariate, pretty

__all__ = [
    "QQ", "ExtField", "PrimeField", "finite_field",
    "Polynomial", "PolyRing", "discriminant", "poly_gcd", "resultant",
    "factor_ff", "factor_z", "is_irreducible_ff",
    "BivariateCover", "FamilyTag", "constant_c", "is_morse",
    "make_morse_cover", "make_trinomial_alt", "make_trinomial_general",
    "make_trinomial_simple", "reduce_mod",
    "EtaleAlgebraDescriptor", "Partition", "etale_algebra", "fiber_patterns",
    "residue_degrees_at", "specialize_pattern",
    "ExtensionDatum", "FiniteGroup", "GroupHom", "Perm", "coset_action",
    "etale_from_action", "galois_rep_of_algebra", "twisted_action",
    "verify_twisting_lemma",
    "ProgressionResult", "SearchSpec", "certify_sn", "grunwald_search",
    "local_solutions", "standard_trick_primes",
    "CensusReport", "census", "density_check", "realize_by_morse",
    "realize_by_trinomial",
    "crt",
    "parse_bivariate", "pretty",
]
