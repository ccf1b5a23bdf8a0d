"""Keep the cyclic collector out of one bounded call."""

import functools
import gc

__all__ = ["collector_paused"]


def collector_paused(fn):
    """Decorator: run ``fn`` with the cyclic garbage collector disabled,
    and re-enable it on the way out — return or exception — only if this
    call disabled it.

    A batch check allocates millions of containers of ints and tuples
    that cannot form a cycle, and every pass their count triggers walks
    them again for nothing.  An online stream does the same one slice at
    a time: each ``OnlineChecker.extend`` batch, and each checkpoint's
    snapshot and write, allocate in proportion to their input and leave
    nothing cyclic behind, so they are paused too; the loops that feed a
    stream slice by slice are not, and the collector runs between
    slices.  The decorated calls are ``PolySIChecker.check`` and
    ``check_polygraph``, ``history_from_json``, ``OnlineChecker``'s
    ``extend`` / ``finish`` / ``replay`` / ``snapshot`` / ``restore``,
    ``PersistentCheck._checkpoint`` and
    ``SegmentStore.latest_checkpoint_payload``, which parses at most
    ``keep_checkpoints`` files (``tests/test_gcpause.py`` holds the
    list).

    Plain ``gc.isenabled()`` / ``gc.disable()`` … ``gc.enable()``, no
    lock and no counter: a nested call, or one whose caller had already
    disabled collection, finds it disabled and leaves it so; of two
    threads, whichever finishes first re-enables it early for the other,
    which costs that one time and nothing else.  No collection is forced
    at the boundary: the few cyclic objects a call leaves wait for the
    next ordinary pass.  Only for calls whose work is bounded by their
    input — never around a loop over a stream.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused
