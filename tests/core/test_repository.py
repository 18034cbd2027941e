"""Unit tests for the model repository (publish, version, discover, cite)."""

import pytest

from repro.auth.identity import IdentityStore
from repro.containers.registry import ContainerRegistry
from repro.core.builder import ServableBuilder
from repro.core.repository import ModelRepository, RepositoryError
from repro.core.servable import PythonFunctionServable
from repro.core.toolbox import MetadataBuilder
from repro.search.index import ViewerContext, Visibility
from repro.sim.clock import VirtualClock


def make_servable(name="model_a", domain="general"):
    metadata = (
        MetadataBuilder(name, f"The {name} model")
        .creator("Chard, R.")
        .description(f"A test model named {name}")
        .model_type("python_function")
        .input_type("dict")
        .output_type("dict")
        .domain(domain)
        .build()
    )
    return PythonFunctionServable(metadata, lambda x: x)


@pytest.fixture
def env():
    clock = VirtualClock()
    repo = ModelRepository(clock, ServableBuilder(clock, ContainerRegistry()))
    ids = IdentityStore()
    ids.add_provider("globus")
    owner = ids.register_identity("globus", "ryan")
    other = ids.register_identity("globus", "eve")
    return repo, owner, other


class TestPublish:
    def test_publish_builds_and_indexes(self, env):
        repo, owner, _ = env
        published = repo.publish(make_servable(), owner)
        assert published.version == 1
        assert published.full_name == "ryan/model_a"
        assert repo.builder.registry.exists("dlhub/model_a:v1")
        assert published.doc_id in repo.index.all_doc_ids()

    def test_doi_minted(self, env):
        repo, owner, _ = env
        a = repo.publish(make_servable("m1"), owner)
        b = repo.publish(make_servable("m2"), owner)
        assert a.doi != b.doi
        assert a.doi.startswith("10.26311/dlhub.")

    def test_byo_doi(self, env):
        repo, owner, _ = env
        published = repo.publish(make_servable(), owner, doi="10.5555/custom")
        assert published.doi == "10.5555/custom"

    def test_republish_bumps_version(self, env):
        repo, owner, _ = env
        v1 = repo.publish(make_servable(), owner)
        v2 = repo.publish(make_servable(), owner)
        assert (v1.version, v2.version) == (1, 2)
        assert repo.get("ryan/model_a").version == 2  # latest by default
        assert repo.get("ryan/model_a", version=1) is v1
        assert len(repo.versions("ryan/model_a")) == 2

    def test_same_name_different_owners(self, env):
        repo, owner, other = env
        repo.publish(make_servable(), owner)
        repo.publish(make_servable(), other)
        assert repo.get("ryan/model_a").owner is owner
        assert repo.get("eve/model_a").owner is other


class TestResolve:
    def test_resolve_full_name(self, env):
        repo, owner, _ = env
        repo.publish(make_servable(), owner)
        assert repo.resolve("ryan/model_a").owner is owner

    def test_resolve_bare_unique_name(self, env):
        repo, owner, _ = env
        repo.publish(make_servable(), owner)
        assert repo.resolve("model_a").owner is owner

    def test_resolve_version_suffix(self, env):
        repo, owner, _ = env
        repo.publish(make_servable(), owner)
        repo.publish(make_servable(), owner)
        assert repo.resolve("ryan/model_a@v1").version == 1

    def test_ambiguous_bare_name(self, env):
        repo, owner, other = env
        repo.publish(make_servable(), owner)
        repo.publish(make_servable(), other)
        with pytest.raises(RepositoryError, match="ambiguous"):
            repo.resolve("model_a")

    def test_unknown_names(self, env):
        repo, _, _ = env
        with pytest.raises(RepositoryError):
            repo.resolve("ghost")
        with pytest.raises(RepositoryError):
            repo.get("ryan/ghost")

    def test_bad_version(self, env):
        repo, owner, _ = env
        repo.publish(make_servable(), owner)
        with pytest.raises(RepositoryError):
            repo.get("ryan/model_a", version=9)


class TestDiscovery:
    def test_search_by_text(self, env):
        repo, owner, _ = env
        repo.publish(make_servable("alpha_net", domain="vision"), owner)
        repo.publish(make_servable("beta_forest", domain="materials"), owner)
        assert repo.search("alpha*").total == 1
        assert repo.search("dlhub.domain:materials").total == 1

    def test_search_respects_visibility(self, env):
        repo, owner, other = env
        repo.publish(
            make_servable("secret_model"),
            owner,
            visibility=Visibility.restricted(principals=[owner.identity_id]),
        )
        anon = repo.search("secret*")
        assert anon.total == 0
        as_owner = repo.search(
            "secret*", ViewerContext(principal_id=owner.identity_id)
        )
        assert as_owner.total == 1

    def test_set_visibility_owner_only(self, env):
        repo, owner, other = env
        repo.publish(make_servable(), owner)
        with pytest.raises(RepositoryError):
            repo.set_visibility("ryan/model_a", Visibility(), other)
        repo.set_visibility(
            "ryan/model_a", Visibility.restricted(groups=["x"]), owner
        )
        assert repo.search("model_a").total == 0

    def test_visibility_update_covers_all_versions(self, env):
        repo, owner, _ = env
        repo.publish(make_servable(), owner)
        repo.publish(make_servable(), owner)
        repo.set_visibility(
            "ryan/model_a", Visibility.restricted(principals=["nobody"]), owner
        )
        assert repo.search("model_a").total == 0


class TestCitation:
    def test_cite_format(self, env):
        repo, owner, _ = env
        published = repo.publish(make_servable(), owner)
        citation = repo.cite("ryan/model_a")
        assert "Chard, R." in citation
        assert published.doi in citation
        assert "v1" in citation

    def test_record_citation(self, env):
        repo, owner, _ = env
        repo.publish(make_servable(), owner)
        repo.record_citation("ryan/model_a", "Smith et al. 2026")
        assert repo.get("ryan/model_a").citations == ["Smith et al. 2026"]

    def test_all_models_latest_versions(self, env):
        repo, owner, _ = env
        repo.publish(make_servable("m1"), owner)
        repo.publish(make_servable("m1"), owner)
        repo.publish(make_servable("m2"), owner)
        latest = repo.all_models()
        assert len(latest) == 2
        assert {m.version for m in latest if m.servable.name == "m1"} == {2}
