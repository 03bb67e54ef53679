"""Tenancy records: valleys, namespaces, and the per-valley information
base that allocates namespace and channel ids.

Names are unique at exactly three scopes: valley names globally, namespace
names within a valley, community names within a namespace. A community has
no record here: it is its flow, kept in `Controller.flows` (yodel.control).
Channel ids come from a per-valley monotone counter here and are never
reused; neither are valley ids. Credentials are opaque strings checked by
directory lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AccessDenied,
    DuplicateName,
    UnknownNamespace,
    UnknownUser,
    UnknownValley,
)
from .services import AnycastMode, ServiceModel

__all__ = ["Visibility", "Valley", "NamespaceRecord", "ValleyInformationBase",
           "Directory"]


class Visibility(Enum):
    OPEN = "open"
    PROTECTED = "protected"


@dataclass
class Valley:
    id: int
    name: str
    admin: str
    members: set[str] = field(default_factory=set)

    def __post_init__(self):
        self.members.add(self.admin)


@dataclass
class NamespaceRecord:
    id: int
    name: str
    valley_id: int
    visibility: Visibility
    service_model: ServiceModel
    admin: str
    authorized_users: set[str] = field(default_factory=set)
    anycast: AnycastMode = AnycastMode()
    auto_partition: bool = True


class ValleyInformationBase:
    """Per-valley state the controller owns: namespaces and id counters."""

    def __init__(self):
        self.namespaces: dict[str, NamespaceRecord] = {}
        self.namespaces_by_id: dict[int, NamespaceRecord] = {}
        self._next_namespace_id = 1
        self._next_channel_id = 1

    def allocate_namespace_id(self) -> int:
        nid = self._next_namespace_id
        self._next_namespace_id += 1
        return nid

    def allocate_channel_id(self) -> int:
        """Monotone per-valley channel ids; retired ids are never handed out again."""
        cid = self._next_channel_id
        self._next_channel_id += 1
        return cid


class Directory:
    """Users, valleys, and the access rules between them.

    The infrastructure user list doubles as the credential store: a
    credential is valid when it names a registered user.
    """

    def __init__(self):
        self.users: set[str] = set()
        self.valleys: dict[str, Valley] = {}
        self.vibs: dict[int, ValleyInformationBase] = {}
        self._next_valley_id = 1

    # -- users ---------------------------------------------------------------

    def register_user(self, user: str) -> None:
        self.users.add(user)

    def check_credentials(self, user: str) -> None:
        if user not in self.users:
            raise UnknownUser(f"unknown user {user!r}")

    # -- valleys -------------------------------------------------------------

    def create_valley(self, admin: str, name: str) -> Valley:
        self.check_credentials(admin)
        if name in self.valleys:
            raise DuplicateName(f"valley {name!r} exists")
        valley = Valley(self._next_valley_id, name, admin)
        self._next_valley_id += 1
        self.valleys[name] = valley
        self.vibs[valley.id] = ValleyInformationBase()
        return valley

    def valley(self, name: str) -> Valley:
        try:
            return self.valleys[name]
        except KeyError:
            raise UnknownValley(f"unknown valley {name!r}") from None

    def vib(self, valley_id: int) -> ValleyInformationBase:
        try:
            return self.vibs[valley_id]
        except KeyError:
            raise UnknownValley(f"unknown valley id {valley_id}") from None

    def add_member(self, admin: str, valley_name: str, user: str) -> None:
        valley = self.valley(valley_name)
        if admin != valley.admin:
            raise AccessDenied(f"{admin!r} does not administer {valley_name!r}")
        self.check_credentials(user)
        valley.members.add(user)

    # -- namespaces ----------------------------------------------------------

    def create_namespace(self, user: str, valley_name: str, name: str,
                         visibility: Visibility, service_model: ServiceModel,
                         anycast: AnycastMode = AnycastMode(),
                         auto_partition: bool = True) -> NamespaceRecord:
        valley = self.valley(valley_name)
        if user not in valley.members:
            raise AccessDenied(f"{user!r} is not a member of {valley_name!r}")
        vib = self.vib(valley.id)
        if name in vib.namespaces:
            raise DuplicateName(f"namespace {name!r} exists in {valley_name!r}")
        record = NamespaceRecord(vib.allocate_namespace_id(), name, valley.id,
                                 visibility, service_model, user,
                                 anycast=anycast, auto_partition=auto_partition)
        vib.namespaces[name] = record
        vib.namespaces_by_id[record.id] = record
        return record

    def namespace(self, valley_name: str, ns_name: str) -> NamespaceRecord:
        vib = self.vib(self.valley(valley_name).id)
        try:
            return vib.namespaces[ns_name]
        except KeyError:
            raise UnknownNamespace(f"unknown namespace {ns_name!r} in {valley_name!r}") from None

    def namespace_by_id(self, valley_id: int, namespace_id: int) -> NamespaceRecord:
        vib = self.vib(valley_id)
        try:
            return vib.namespaces_by_id[namespace_id]
        except KeyError:
            raise UnknownNamespace(f"unknown namespace id {namespace_id}") from None

    def set_visibility(self, user: str, valley_name: str, ns_name: str,
                       visibility: Visibility) -> None:
        """Mutable visibility; the service model, by contrast, is fixed for life.

        Flipping to protected gates only future joins, existing registrations
        stay.
        """
        ns = self.namespace(valley_name, ns_name)
        if user != ns.admin:
            raise AccessDenied(f"{user!r} does not administer namespace {ns_name!r}")
        ns.visibility = visibility

    def grant_access(self, admin: str, valley_name: str, ns_name: str, user: str) -> None:
        ns = self.namespace(valley_name, ns_name)
        if admin != ns.admin:
            raise AccessDenied(f"{admin!r} does not administer namespace {ns_name!r}")
        self.check_credentials(user)
        ns.authorized_users.add(user)

    def authorize_access(self, user: str, valley_name: str, ns_name: str) -> bool:
        """May this user join communities under the namespace right now?"""
        valley = self.valley(valley_name)
        if user not in valley.members:
            return False
        ns = self.namespace(valley_name, ns_name)
        if ns.visibility is Visibility.OPEN:
            return True
        return user == ns.admin or user in ns.authorized_users
