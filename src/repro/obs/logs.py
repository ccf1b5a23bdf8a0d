"""Logging policy for the ``repro.*`` namespace.

Library modules obtain loggers through :func:`get_logger` and emit
diagnostics at DEBUG/INFO; nothing in the library ever configures
handlers or calls ``logging.basicConfig`` — an embedding application
keeps full control of its logging tree.  The CLI is the one process
entry point that owns presentation, and it calls
:func:`configure_logging` exactly once, from ``--verbose``/``-q``.
"""

import logging
import sys

#: Root of the library's logger namespace.
ROOT = "repro"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATE_FORMAT = "%H:%M:%S"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro.`` namespace.  Accepts either a bare
    module suffix (``"online"``) or a full dotted name (typically
    ``__name__``, which already starts with ``repro.``)."""
    if name != ROOT and not name.startswith(ROOT + "."):
        name = f"{ROOT}.{name}"
    return logging.getLogger(name)


def verbosity_level(verbosity: int) -> int:
    """Map the CLI's ``-v`` minus ``-q`` count to a logging level:
    ``-q`` → ERROR, default → WARNING, ``-v`` → INFO, ``-vv`` → DEBUG."""
    if verbosity <= -1:
        return logging.ERROR
    if verbosity == 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """CLI-only: attach one stderr handler to the ``repro`` root logger.

    Idempotent — rerunning replaces the handler rather than stacking
    duplicates (the CLI may be invoked repeatedly in-process by tests).
    """
    root = logging.getLogger(ROOT)
    root.setLevel(verbosity_level(verbosity))
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT, _DATE_FORMAT))
    for existing in list(root.handlers):
        root.removeHandler(existing)
    root.addHandler(handler)
    root.propagate = False
    return root
