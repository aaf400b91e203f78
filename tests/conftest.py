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


@pytest.fixture
def dedup_shards_made(monkeypatch):
    """Every dedup shard the KG pipelines create while the test runs."""
    import ie_ray.pipelines.kg as kg
    made, create = [], kg.create_dedup_index

    def spy(*args, **kwargs):
        shards = create(*args, **kwargs)
        made.extend(shards)
        return shards

    monkeypatch.setattr(kg, "create_dedup_index", spy)
    return made

