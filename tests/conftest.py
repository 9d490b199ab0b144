"""Shared test fixtures: golden sample documents from tests/data."""

import os
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict[str, str]:
    """The environment for a child process that runs the command line from
    this checkout, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_data(name: str) -> str:
    return (DATA_DIR / name).read_text("utf-8")


@pytest.fixture
def golden_project_text() -> str:
    return read_data("project_e015.rdf")


@pytest.fixture
def golden_person_text() -> str:
    return read_data("person_273.rdf")


@pytest.fixture
def golden_orgunit_text() -> str:
    return read_data("orgunit_auseninstitut.rdf")


@pytest.fixture
def fodok_text() -> str:
    return read_data("fodok_record.sgml")


@pytest.fixture
def html_page_bytes() -> bytes:
    return (DATA_DIR / "auris_page.html").read_bytes()
