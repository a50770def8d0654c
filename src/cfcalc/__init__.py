"""cfcalc: exact symbolic calculus for monomial-log constructible functions
on prepared cells, with a verifying numeric oracle.

The package holds only the version: import each name from its module, such
as `from cfcalc.core import CExpr`."""

__version__ = "0.1.0"
