"""Slacker middleware: tenant management, control protocol, nodes, cluster."""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "BASE_PORT": ".tenant",
        "CreateTenantReply": ".protocol",
        "CreateTenantRequest": ".protocol",
        "DeleteTenantReply": ".protocol",
        "DeleteTenantRequest": ".protocol",
        "Endpoint": ".transport",
        "Envelope": ".transport",
        "FleetSpec": ".cluster",
        "Frontend": ".frontend",
        "Heartbeat": ".protocol",
        "MESSAGE_REGISTRY": ".protocol",
        "MessageBus": ".transport",
        "MigrateTenantAccept": ".protocol",
        "MigrateTenantComplete": ".protocol",
        "MigrateTenantRequest": ".protocol",
        "NodeConfig": ".node",
        "ProtocolError": ".protocol",
        "SlackerCluster": ".cluster",
        "SlackerNode": ".node",
        "Tenant": ".tenant",
        "TenantLocation": ".frontend",
        "TenantLocationUpdate": ".protocol",
        "TenantRegistry": ".tenant",
        "TenantStatus": ".tenant",
        "decode_message": ".protocol",
        "decode_varint": ".protocol",
        "encode_message": ".protocol",
        "encode_varint": ".protocol",
        "tenant_port": ".tenant",
        "zigzag_decode": ".protocol",
        "zigzag_encode": ".protocol",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
