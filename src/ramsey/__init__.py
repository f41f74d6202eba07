"""Exact small Ramsey numbers r(F, G) by exhaustive symmetry-broken
two-coloring search, and the sweep that checks the paper's edge-count upper
bounds with them.  Import each name from the module that defines it."""
