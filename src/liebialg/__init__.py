"""Exact computer algebra for almost-factorizable real simple Lie bialgebras.

The supported interface is the `liebialg` command line (see `cli`); the
package exports no Python API.
"""

__version__ = "0.1.0"
