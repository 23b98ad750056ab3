"""Dynamic group-size negotiation (modified Rubinstein bargaining, Appendix C)."""

from repro import _lazy_exports

__all__ = [
    "BargainingConfig",
    "GroupSizeBargainer",
    "NegotiationOutcome",
    "Offer",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.negotiation.bargaining": (
            "BargainingConfig",
            "GroupSizeBargainer",
            "NegotiationOutcome",
            "Offer",
        ),
    },
)
