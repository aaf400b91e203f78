import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (never per-test)."""
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield
    ray.shutdown()

