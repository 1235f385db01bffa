import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def rows_events(monkeypatch):
    """A list that records "built" for every packed-rows value made and "unpack" for every read-back.

    The kernel's _Rows is swapped, where laurent, rmpoly and apoly look it
    up, for a subclass that records; a route that made a packed-rows value
    per step would show it as a count that grows with n.
    """
    from c2n3 import apoly, laurent, rmpoly

    events = []

    class Recorded(laurent._Rows):
        __slots__ = ()

        def __init__(self, *args):
            events.append("built")
            super().__init__(*args)

        def unpack(self):
            events.append("unpack")
            return super().unpack()

    for module in (laurent, rmpoly, apoly):
        monkeypatch.setattr(module, "_Rows", Recorded)
    return events
