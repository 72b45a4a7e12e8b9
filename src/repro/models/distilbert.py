"""DistilBERT (Sanh et al., 2019): a purged BERT student.

Per the paper: token-type embeddings and the pooler are removed and the
number of layers is halved; the model is then trained by knowledge
distillation from a BERT teacher (see ``repro.pretraining.distillation``)
with the triple loss (soft targets, MLM, cosine alignment)."""

from __future__ import annotations

import numpy as np

from ..nn import (Dropout, Embedding, LayerNorm, Linear, Module, Tensor,
                  fused, is_fused_enabled, padding_attention_mask)
from .config import TransformerConfig
from .transformer import (TransformerEncoder, cross_match_features,
                          lexical_match_scores, token_similarity)

__all__ = ["DistilBertModel", "DistilBertEmbeddings"]


class DistilBertEmbeddings(Module):
    """Token + position embeddings only — no token-type embeddings."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        std = config.initializer_range
        self.token = Embedding(config.vocab_size, config.d_model, rng, std=std)
        self.position = Embedding(config.max_position, config.d_model, rng,
                                  std=std)
        self.norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)
        self.max_position = config.max_position
        self.match_proj = (Linear(4, config.d_model, rng, std=0.2,
                                  bias=False)
                           if config.match_bias else None)

    def forward(self, input_ids: np.ndarray,
                match_features: np.ndarray | None = None) -> Tensor:
        input_ids = np.asarray(input_ids)
        batch, seq = input_ids.shape
        if seq > self.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position "
                f"{self.max_position}")
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        if is_fused_enabled():
            return Tensor(self.fused_forward(input_ids, positions,
                                             match_features))
        total = self.token(input_ids) + self.position(positions)
        if match_features is not None and self.match_proj is not None:
            total = total + self.match_proj(Tensor(match_features))
        return self.dropout(self.norm(total))

    def fused_forward(self, input_ids: np.ndarray, positions: np.ndarray,
                      match_features: np.ndarray | None) -> np.ndarray:
        """No-tape array path, bit-identical to :meth:`forward` (dropout
        is identity while the tape is off)."""
        total = self.token.weight.data[input_ids]
        total = total + self.position.weight.data[positions]
        if match_features is not None and self.match_proj is not None:
            # Raw matmul, not fused.linear: keep this projection out of
            # the kernel call counters.
            total += match_features @ self.match_proj.weight.data.T
        return fused.layer_norm(total, self.norm.weight.data,
                                self.norm.bias.data, eps=self.norm.eps)


class DistilBertModel(Module):
    """Half-depth BERT without segment embeddings or pooler."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        if config.arch != "distilbert":
            raise ValueError(
                f"expected arch='distilbert', got {config.arch!r}")
        self.config = config
        self.embeddings = DistilBertEmbeddings(config, rng)
        self.encoder = TransformerEncoder(config, rng)
        self.pooler = None  # removed in the student architecture
        self.special_token_ids: set[int] = {0}

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                pad_mask: np.ndarray | None = None) -> Tensor:
        # DistilBERT has no token-type embeddings; segment_ids are used
        # only to locate the two entities for the matchedness features.
        attention_mask = None
        if pad_mask is not None:
            attention_mask = padding_attention_mask(pad_mask)
        match_scores = None
        match_features = None
        if self.config.match_bias:
            table = self.embeddings.token.weight.data
            # One shared similarity matrix: cross_match_features reads
            # it, lexical_match_scores consumes it (mutates in place).
            similarity = token_similarity(table, input_ids)
            if segment_ids is not None:
                match_features = cross_match_features(
                    table, input_ids, segment_ids, self.special_token_ids,
                    similarity=similarity)
            match_scores = lexical_match_scores(
                table, input_ids, self.special_token_ids,
                similarity=similarity)
        hidden = self.embeddings(input_ids, match_features=match_features)
        return self.encoder(hidden, attention_mask=attention_mask,
                            match_scores=match_scores)

    def pooled_output(self, hidden: Tensor, cls_index: int = 0) -> Tensor:
        """No pooler: the raw CLS hidden state feeds the classifier."""
        return hidden[:, cls_index, :]

    def fused_pooled_output(self, hidden: np.ndarray,
                            cls_index: int = 0) -> np.ndarray:
        """Array twin of :meth:`pooled_output`, bit-identical."""
        return hidden[:, cls_index, :]
