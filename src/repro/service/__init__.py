"""Deployment-style inference service and applications (Section VI)."""

from .request import RTPRequest, ServingStage
from .rtp_service import (
    ETAEntry,
    ETAService,
    OrderSortingService,
    RTPResponse,
    RTPService,
    SortedOrder,
)
from .batching import GraphCache, request_fingerprint
from .monitoring import ServiceMonitor, ServiceStats, DEFAULT_BUCKETS

__all__ = [
    "RTPRequest", "ServingStage",
    "RTPService", "RTPResponse",
    "OrderSortingService", "SortedOrder",
    "ETAService", "ETAEntry",
    "GraphCache", "request_fingerprint",
    "ServiceMonitor", "ServiceStats", "DEFAULT_BUCKETS",
]
