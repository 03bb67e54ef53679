"""Tenancy directory: name scopes, access control, id allocation."""

import pytest

from yodel.errors import (
    AccessDenied,
    DuplicateName,
    UnknownNamespace,
    UnknownUser,
    UnknownValley,
)
from yodel.model import Directory, Visibility
from yodel.services import ServiceModel


@pytest.fixture
def directory():
    d = Directory()
    for user in ("alice", "bob", "carol"):
        d.register_user(user)
    return d


def test_valley_ids_are_monotone_and_never_reused(directory):
    v1 = directory.create_valley("alice", "farm")
    v2 = directory.create_valley("bob", "mill")
    assert (v1.id, v2.id) == (1, 2)
    with pytest.raises(DuplicateName):
        directory.create_valley("carol", "farm")
    v3 = directory.create_valley("carol", "barn")
    assert v3.id == 3


def test_unknown_admin_cannot_create_valley(directory):
    with pytest.raises(UnknownUser):
        directory.create_valley("mallory", "farm")


def test_admin_is_a_member(directory):
    v = directory.create_valley("alice", "farm")
    assert "alice" in v.members


def test_namespace_names_scoped_per_valley(directory):
    directory.create_valley("alice", "farm")
    directory.create_valley("bob", "mill")
    directory.create_namespace("alice", "farm", "news", Visibility.OPEN, ServiceModel.SSM)
    with pytest.raises(DuplicateName):
        directory.create_namespace("alice", "farm", "news", Visibility.OPEN, ServiceModel.MSM)
    # same name under another valley is a different scope
    ns = directory.create_namespace("bob", "mill", "news", Visibility.OPEN, ServiceModel.MSM)
    assert ns.valley_id == directory.valley("mill").id


def test_only_members_create_namespaces(directory):
    directory.create_valley("alice", "farm")
    with pytest.raises(AccessDenied):
        directory.create_namespace("bob", "farm", "news", Visibility.OPEN, ServiceModel.SSM)
    directory.add_member("alice", "farm", "bob")
    directory.create_namespace("bob", "farm", "news", Visibility.OPEN, ServiceModel.SSM)


def test_open_namespace_admits_any_member(directory):
    directory.create_valley("alice", "farm")
    directory.add_member("alice", "farm", "bob")
    directory.create_namespace("alice", "farm", "news", Visibility.OPEN, ServiceModel.SSM)
    assert directory.authorize_access("bob", "farm", "news")
    assert not directory.authorize_access("carol", "farm", "news")  # not a member


def test_protected_namespace_needs_a_grant(directory):
    directory.create_valley("alice", "farm")
    directory.add_member("alice", "farm", "bob")
    directory.create_namespace("alice", "farm", "secrets", Visibility.PROTECTED,
                               ServiceModel.AC)
    assert not directory.authorize_access("bob", "farm", "secrets")
    directory.grant_access("alice", "farm", "secrets", "bob")
    assert directory.authorize_access("bob", "farm", "secrets")


def test_visibility_is_mutable_by_admin_only(directory):
    directory.create_valley("alice", "farm")
    directory.add_member("alice", "farm", "bob")
    directory.create_namespace("alice", "farm", "news", Visibility.OPEN, ServiceModel.SSM)
    with pytest.raises(AccessDenied):
        directory.set_visibility("bob", "farm", "news", Visibility.PROTECTED)
    directory.set_visibility("alice", "farm", "news", Visibility.PROTECTED)
    # future joins gated; bob now needs a grant
    assert not directory.authorize_access("bob", "farm", "news")


def test_channel_ids_monotone_per_valley(directory):
    directory.create_valley("alice", "farm")
    directory.create_valley("bob", "mill")
    farm = directory.vib(directory.valley("farm").id)
    mill = directory.vib(directory.valley("mill").id)
    assert [farm.allocate_channel_id() for _ in range(3)] == [1, 2, 3]
    # independent counter per valley
    assert mill.allocate_channel_id() == 1
    assert farm.allocate_channel_id() == 4


def test_namespace_ids_allocated_per_valley(directory):
    directory.create_valley("alice", "farm")
    a = directory.create_namespace("alice", "farm", "one", Visibility.OPEN, ServiceModel.SSM)
    b = directory.create_namespace("alice", "farm", "two", Visibility.OPEN, ServiceModel.MSM)
    assert (a.id, b.id) == (1, 2)
    assert directory.namespace_by_id(a.valley_id, 2) is b


def test_unknown_lookups_raise(directory):
    with pytest.raises(UnknownValley):
        directory.valley("nowhere")
    directory.create_valley("alice", "farm")
    with pytest.raises(UnknownNamespace):
        directory.namespace("farm", "nothing")
