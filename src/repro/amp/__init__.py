"""Mixed-precision training (fp16 storage + fp32 master math)."""

from repro.amp.grad_scaler import GradScaler
from repro.amp.fp16 import cast_model_to

__all__ = ["GradScaler", "cast_model_to"]
