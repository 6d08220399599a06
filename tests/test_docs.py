"""Documentation smoke tests: the README's code must actually run."""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


def test_readme_quickstart_executes():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = python_blocks(readme)
    assert blocks, "README must contain a quickstart code block"
    namespace: dict = {}
    exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)  # noqa: S102
    report = namespace["report"]
    assert report.transmissions > 0
    assert report.rows is not None


def test_readme_references_existing_files():
    readme = (REPO_ROOT / "README.md").read_text()
    for relative in re.findall(r"`(examples/[a-z_]+\.py)`", readme):
        assert (REPO_ROOT / relative).exists(), relative
    for name in ("DESIGN.md", "EXPERIMENTS.md"):
        assert name in readme
        assert (REPO_ROOT / name).exists()


def test_design_doc_references_real_modules():
    import importlib

    design = (REPO_ROOT / "DESIGN.md").read_text()
    for reference in sorted(set(re.findall(r"`(repro\.[a-z_.]+)`", design))):
        reference = reference.rstrip(".")
        if reference.endswith(".*"):
            reference = reference[:-2]
        # References may name a module or a module attribute (function).
        try:
            importlib.import_module(reference)
        except ModuleNotFoundError:
            module_name, _, attribute = reference.rpartition(".")
            module = importlib.import_module(module_name)
            assert hasattr(module, attribute), reference


def test_experiments_doc_mentions_every_figure():
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    for figure in ("Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14",
                   "Fig. 15", "Fig. 16"):
        assert figure in experiments, figure


def test_every_example_has_docstring_and_main():
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        text = example.read_text()
        assert text.lstrip().startswith('"""'), example.name
        assert '__main__' in text, example.name


def test_paper_mapping_references_real_paths():
    mapping = (REPO_ROOT / "docs" / "paper_mapping.md").read_text()
    for relative in set(re.findall(r"`((?:repro|examples|benchmarks|tests|docs)/[A-Za-z0-9_./]+\.(?:py|md))`", mapping)):
        path = REPO_ROOT / relative
        if relative.startswith("repro/"):
            path = REPO_ROOT / "src" / relative
        assert path.exists(), relative


def test_relative_markdown_links_resolve():
    """Every relative link in docs/*.md + the top-level docs points at a file.

    Reuses the checker CI runs (``scripts/check_doc_links.py``) so the test
    and the workflow cannot disagree about what counts as broken.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "scripts" / "check_doc_links.py"
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)

    files = sorted((REPO_ROOT / "docs").glob("*.md"))
    files += [REPO_ROOT / name for name in checker.DEFAULT_FILES]
    assert files, "docs/*.md must exist"
    broken = {
        str(path.relative_to(REPO_ROOT)): checker.broken_links(path)
        for path in files
    }
    assert all(not links for links in broken.values()), broken


def test_benchmarking_doc_references_real_names():
    doc = (REPO_ROOT / "docs" / "benchmarking.md").read_text()
    from repro.bench import harness

    # The experiment->figure table must cover the whole registry.
    for name in harness.experiment_specs(60):
        assert f"`{name}`" in doc, name
    for keyword in ("--jobs", "run_manifest.json", "byte-identical"):
        assert keyword in doc, keyword


def test_wire_format_spec_exists_and_mentions_key_fields():
    spec = (REPO_ROOT / "docs" / "wire_format.md").read_text()
    for keyword in ("presence mask", "Z-number", "relation_flags",
                    "Decomposition threshold", "Canonicity"):
        assert keyword in spec, keyword


def _load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "scripts" / "check_doc_links.py"
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def test_no_orphaned_docs_pages():
    """Every docs/*.md must be reachable from README.md via links."""
    checker = _load_checker()
    assert checker.orphaned_docs() == []


def test_orphan_detection_catches_unlinked_page(tmp_path):
    """The checker must flag a docs page nothing links to."""
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("see [linked](docs/linked.md)\n")
    (tmp_path / "docs" / "linked.md").write_text("fine\n")
    (tmp_path / "docs" / "orphan.md").write_text("nobody links here\n")
    checker.REPO_ROOT = tmp_path
    try:
        orphans = checker.orphaned_docs()
    finally:
        checker.REPO_ROOT = REPO_ROOT
    assert [p.name for p in orphans] == ["orphan.md"]


def test_orphan_detection_follows_transitive_links(tmp_path):
    """Reachability is transitive: README -> a -> b keeps b un-orphaned."""
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("see [a](docs/a.md)\n")
    (tmp_path / "docs" / "a.md").write_text("see [b](b.md)\n")
    (tmp_path / "docs" / "b.md").write_text("leaf\n")
    checker.REPO_ROOT = tmp_path
    try:
        orphans = checker.orphaned_docs()
    finally:
        checker.REPO_ROOT = REPO_ROOT
    assert orphans == []


def test_service_doc_references_real_names():
    doc = (REPO_ROOT / "docs" / "service.md").read_text()
    from repro import service

    for name in ("QueryBroker", "BrokerConfig", "WorkloadSpec",
                 "generate_workload", "sharing_signature"):
        assert name in doc, name
        assert hasattr(service, name), name
    for keyword in ("share group", "piggyback", "concurrency",
                    "latency_percentile", "compose_filters"):
        assert keyword in doc, keyword
