"""Tests for the metadata namespace and synthetic file contents."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    FileExists, IsADirectory, NoSuchFile, NotADirectory, StorageError,
)
from repro.storage import FileContent, Namespace
from repro.storage.filesystem import normalize
from tests.conftest import listdir


@pytest.fixture
def ns():
    return Namespace()


def fc(token="t", size=100):
    return FileContent.synthesize(token, size)


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [
        ("/a/b", "/a/b"),
        ("a/b", "/a/b"),
        ("/a//b/", "/a/b"),
        ("/a/./b", "/a/b"),
        ("/a/b/../c", "/a/c"),
        ("/", "/"),
        ("", "/"),
    ])
    def test_cases(self, raw, expected):
        assert normalize(raw) == expected


class TestFileContent:
    def test_deterministic_fingerprint(self):
        assert fc("x", 10) == fc("x", 10)
        assert fc("x", 10) != fc("y", 10)
        assert fc("x", 10) != fc("x", 11)

    def test_verify_against(self):
        assert fc("a", 5).verify_against(fc("a", 5))
        assert not fc("a", 5).verify_against(fc("b", 5))

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError):
            FileContent.synthesize("x", -1)

    @given(st.text(min_size=1, max_size=30),
           st.integers(min_value=0, max_value=2 ** 50))
    def test_fingerprint_stability_property(self, token, size):
        a = FileContent.synthesize(token, size)
        b = FileContent.synthesize(token, size)
        assert a == b and a.size == size


class TestNamespaceBasics:
    def test_create_lookup_roundtrip(self, ns):
        c = fc()
        ns.create("/data/in.dat", c)
        assert ns.lookup("/data/in.dat") == c

    def test_lookup_missing_raises(self, ns):
        with pytest.raises(NoSuchFile):
            ns.lookup("/nope")

    def test_create_no_overwrite(self, ns):
        ns.create("/f", fc("a"))
        with pytest.raises(FileExists):
            ns.create("/f", fc("b"), overwrite=False)
        ns.create("/f", fc("b"))  # default overwrites
        assert ns.lookup("/f") == fc("b")

    def test_file_in_path_component_raises(self, ns):
        ns.create("/a", fc())
        with pytest.raises(NotADirectory):
            ns.create("/a/b", fc())

    def test_lookup_on_directory_raises(self, ns):
        ns.mkdir("/d")
        with pytest.raises(IsADirectory):
            ns.lookup("/d")

    def test_unlink(self, ns):
        ns.create("/f", fc())
        ns.unlink("/f")
        assert not ns.exists("/f")
        with pytest.raises(NoSuchFile):
            ns.unlink("/f")

    def test_mkdir_and_listdir(self, ns):
        ns.mkdir("/a/b/c")
        ns.create("/a/b/f.dat", fc())
        assert listdir(ns, "/a/b") == ["c", "f.dat"]
        assert ns.is_dir("/a/b/c")

    def test_mkdir_over_file_raises(self, ns):
        ns.create("/x", fc())
        with pytest.raises(FileExists):
            ns.mkdir("/x")

    def test_rename(self, ns):
        c = fc()
        ns.create("/src/f", c)
        ns.rename("/src/f", "/dst/g")
        assert ns.lookup("/dst/g") == c
        assert not ns.exists("/src/f")

    def test_rename_directory_moves_subtree(self, ns):
        ns.create("/a/x", fc("x", 1))
        ns.create("/a/sub/y", fc("y", 2))
        ns.rename("/a", "/b")
        assert ns.lookup("/b/x") == fc("x", 1)
        assert ns.lookup("/b/sub/y") == fc("y", 2)
        assert not ns.is_dir("/a")

    def test_rename_dir_onto_file_rejected(self, ns):
        ns.create("/d/x", fc())
        ns.create("/target", fc())
        with pytest.raises(NotADirectory):
            ns.rename("/d", "/target")
        assert ns.exists("/target") and ns.exists("/d/x")

    def test_rename_dir_into_own_subtree_rejected(self, ns):
        ns.create("/a/x", fc())
        with pytest.raises(StorageError):
            ns.rename("/a", "/a/b")
        assert ns.exists("/a/x")  # tree intact

    def test_rename_onto_itself_is_noop(self, ns):
        ns.create("/f", fc("v", 9))
        ns.rename("/f", "/f")
        assert ns.lookup("/f") == fc("v", 9)

    def test_rmdir_requires_empty_or_recursive(self, ns):
        ns.create("/d/f", fc(size=10))
        with pytest.raises(StorageError):
            ns.rmdir("/d")
        released = ns.rmdir("/d", recursive=True)
        assert released == 10
        assert not ns.is_dir("/d")

    def test_rmdir_root_refused(self, ns):
        with pytest.raises(StorageError):
            ns.rmdir("/")


class TestAggregates:
    def test_walk_and_totals(self, ns):
        ns.create("/a/x", fc("x", 10))
        ns.create("/a/y", fc("y", 20))
        ns.create("/b/z", fc("z", 5))
        assert ns.total_bytes() == 35
        assert ns.total_bytes("/a") == 30
        assert ns.file_count("/a") == 2
        paths = [p for p, _c in ns.walk_files()]
        assert paths == ["/a/x", "/a/y", "/b/z"]

    def test_is_empty_tracked_dataspace_check(self, ns):
        # The tracked-dataspace primitive: empty -> releasable.
        assert ns.is_empty()
        ns.mkdir("/scratch")
        assert ns.is_empty()          # directories alone don't count
        ns.create("/scratch/left.dat", fc())
        assert not ns.is_empty()
        ns.unlink("/scratch/left.dat")
        assert ns.is_empty()

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                    max_size=6, unique=True),
           st.integers(min_value=0, max_value=1000))
    def test_total_bytes_matches_sum_property(self, names, size):
        ns = Namespace()
        for i, name in enumerate(names):
            ns.create(f"/dir/{name}", fc(name, size + i))
        assert ns.total_bytes() == sum(size + i for i in range(len(names)))
