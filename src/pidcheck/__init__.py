"""pidcheck: structural analysis of partial influence diagrams.

Decides whether a partially ordered decision model is a welldefined
scenario, computes relevant utilities, required variables and significant
chance variables, and cross-checks every structural verdict against an
exact variable-elimination oracle at desk scale.
"""
__version__ = "0.1.0"
