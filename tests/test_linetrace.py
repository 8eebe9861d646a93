"""The statements the opt-in line-trace plugin (``tests/linetrace.py``)
looks for, on a toy source.  Nothing here traces."""

from linetrace import statements

TOY = '''\
X = 1


def f(a):
    """A docstring runs nothing."""
    global X
    if a:
        return (a +
                1)
    try:
        pass
    except ValueError:
        raise
    else:
        X = 2

    def g():
        nonlocal a
        return a
    return g


class C:
    def m(self):
        return 1
'''


def test_statements_are_function_body_lines_and_compound_headers():
    assert statements(TOY) == [
        (7, 7), (8, 9),                  # if, and its two-line return
        (10, 10), (11, 11), (13, 13), (15, 15),  # try and its three bodies
        (17, 17), (19, 19), (20, 20),    # def g and its return, return g
        (25, 25),                        # a method's body
    ]
