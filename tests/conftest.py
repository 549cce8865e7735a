import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def eight_read_blocks(monkeypatch):
    """Read every query table in 8 blocks. The byte-sized default reads
    each small test table as one block, which would leave the queries'
    multi-block partial merges and boundary stitching untested. Tests
    that need another count patch ``_blocks_for`` themselves."""
    from pdf_to_text_ray.pipelines import queries

    monkeypatch.setattr(queries, "_blocks_for", lambda path, columns=None: 8)
