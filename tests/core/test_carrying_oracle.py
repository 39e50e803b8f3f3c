"""Property test: the bisect carrying-scope search vs a brute-force oracle.

The oracle implements the paper's literal description — walk the dynamic
stack from the top, return the first frame entered before the previous
access — with a plain linear scan.  The production implementation uses a
binary search over the (monotone) entry clocks; they must always agree,
for arbitrary interleavings of scope events and accesses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scopestack import ScopeStack
from tests.helpers import oracle_carrying


# An action is: 0 = enter a scope, 1 = exit, 2 = memory access.
actions = st.lists(st.integers(min_value=0, max_value=2),
                   min_size=1, max_size=120)


@settings(max_examples=200, deadline=None)
@given(actions=actions, t_query_frac=st.floats(0.0, 1.0))
def test_bisect_matches_linear_scan(actions, t_query_frac):
    stack = ScopeStack()
    clock = 0
    next_sid = 0
    stack.enter(next_sid, clock)   # a root scope is always active
    next_sid += 1
    access_times = [0]
    for action in actions:
        if action == 0:
            stack.enter(next_sid, clock)
            next_sid += 1
        elif action == 1 and stack.depth() > 1:
            stack.exit(stack.current())
        else:
            clock += 1
            access_times.append(clock)
    # Query with a "previous access time" drawn from the run's history.
    t_prev = access_times[int(t_query_frac * (len(access_times) - 1))]
    assert stack.carrying(t_prev) == oracle_carrying(stack.frames(), t_prev)
