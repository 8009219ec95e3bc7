"""Web substrate: pages, origin servers, CDNs, and the simulated HTTP GET."""

from .page import WebPage
from .server import OriginServer
from .cdn import CDNProvider, CdnDeployment
from .http import HttpClient
from .happyeyeballs import (
    HappyEyeballsClient,
    RaceOutcome,
    race_environment,
    summarise_races,
)

__all__ = [
    "WebPage",
    "OriginServer",
    "CDNProvider",
    "CdnDeployment",
    "HttpClient",
    "HappyEyeballsClient",
    "RaceOutcome",
    "race_environment",
    "summarise_races",
]
