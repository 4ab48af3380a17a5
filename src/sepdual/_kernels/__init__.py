"""Bit kernels: order evaluation, majority shifts and the exhaustive scan.

The implementation lives in :mod:`._pure` and is re-exported here, where the
rest of the package looks it up.  It stays a separate module so that calls
the kernels make to each other (``scan_members`` scores every separation with
``order2``) bind inside ``_pure``: replacing the names exported here, as a
tracer or profiler does, then sees only the package's own calls.
"""

from ._pure import order2, scan_members, shift2

BACKEND = "pure"
