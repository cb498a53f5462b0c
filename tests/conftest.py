import pytest
from hypothesis import settings

from newsnet.features import FeatureExtractor
from newsnet.ml.crossval import cross_validate
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate

from oracles import ALL_FEATURES

# Wall-clock deadlines flake on small shared hosts; example counts stay per test.
settings.register_profile("newsnet", deadline=None)
settings.load_profile("newsnet")


@pytest.fixture(scope="session")
def strong_corpus():
    spec = SyntheticSpec(n_users=200, news_per_class=50, seed=7, **STRONG_EFFECTS)
    return generate(spec)


@pytest.fixture(scope="session")
def strong_extractor(strong_corpus):
    return FeatureExtractor.build(strong_corpus.graph, strong_corpus.table, seed=3)


@pytest.fixture(scope="session")
def strong_report(strong_extractor):
    return cross_validate(strong_extractor, mask=ALL_FEATURES, seed=11)


@pytest.fixture(scope="session")
def null_corpus():
    return generate(SyntheticSpec(n_users=200, news_per_class=50, seed=7))


@pytest.fixture(scope="session")
def null_report(null_corpus):
    extractor = FeatureExtractor.build(null_corpus.graph, null_corpus.table, seed=3)
    return cross_validate(extractor, mask=ALL_FEATURES, seed=11)


@pytest.fixture(scope="session")
def small_strong_extractor():
    """Smaller planted corpus for the experiment-driver tests."""
    spec = SyntheticSpec(n_users=80, news_per_class=15, seed=21, **STRONG_EFFECTS)
    corpus = generate(spec)
    return FeatureExtractor.build(corpus.graph, corpus.table, seed=5)
