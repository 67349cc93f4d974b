"""Topological shooting solver for the static monopole profile.

Solves the coupled radial boundary value problem for the gauge and Higgs
fields of the spherically symmetric monopole by nested bracket searches
(ITP steps on the signed distance, bisection fallback; a kept end's
distance is halved once the other end has been replaced three times in a
row, since the gauge distance kinks at the separatrix) on the two free
origin coefficients, validates itself against the closed-form
zero-coupling solution, and reports far-field decay rates, the mass
integral, and profile audits.
"""
__version__ = "0.1.0"
