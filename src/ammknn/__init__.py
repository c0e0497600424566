"""Adaptive minimum-match KNN score prediction for tabular cohorts.

End-to-end toolkit: cohort CSV ingestion, joint standardization,
correlation-threshold variable selection, adaptive nearest-neighbor score
prediction, leave-one-out cross-validation, tiered risk classification,
and confusion-matrix reporting.

The command line, ``ammknn.cli``, is the interface: the package binds
no names of its own, and each name is imported from the module that
defines it.
"""
