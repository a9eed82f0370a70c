"""Synthetic datasets standing in for ImageNet-1k and Wikipedia."""

from repro.data.synthetic import (
    DataLoader,
    synthetic_image_classification,
)

__all__ = [
    "DataLoader",
    "synthetic_image_classification",
]
