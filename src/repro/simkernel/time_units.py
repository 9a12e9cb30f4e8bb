"""Time units for the simulated kernel.

All simulated time is expressed in *nanoseconds* held in Python floats.
Real-time systems conventionally reason in nanoseconds (``clock_nanosleep``,
``timer_settime`` take ``timespec`` values); floats give us sub-nanosecond
resolution for rate-shared compute while staying deterministic (all inputs
flow through the same arithmetic on every run).
"""

#: One nanosecond (the base unit).
NSEC = 1.0

#: Nanoseconds per microsecond.
NSEC_PER_USEC = 1_000.0

#: Nanoseconds per millisecond.
NSEC_PER_MSEC = 1_000_000.0

#: Nanoseconds per second.
NSEC_PER_SEC = 1_000_000_000.0

#: One microsecond, in nanoseconds.
USEC = NSEC_PER_USEC

#: One millisecond, in nanoseconds.
MSEC = NSEC_PER_MSEC

#: One second, in nanoseconds.
SEC = NSEC_PER_SEC

