"""Shared pytest hooks."""

import pytest


def pytest_collection_modifyitems(items):
    # desk_run trains two desk models for 15 epochs each
    for item in items:
        if "desk_run" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
