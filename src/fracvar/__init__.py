"""Numerical toolkit for a fractional two-point boundary value problem.

Layered bottom-up: fractional integral/derivative quadrature
(frac_kernel), the sine spectral space with cached operator images
(space), energy functionals (energy), admissibility thresholds
(conditions), constrained minimization and certificates (solver), and
the sweep/CLI layer (harness).  Each name is imported from the module
that defines it, e.g. ``from fracvar.solver import minimize``.
"""
