"""Exact enumeration of generalized derangements, 3-row Latin
rectangles and Latin trapezoids through weighted tilings."""

__version__ = "0.1.0"
