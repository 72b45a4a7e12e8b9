"""BERT (Devlin et al., 2018): bidirectional encoder with learned token /
position / segment embeddings, a CLS pooler, and MLM + NSP heads."""

from __future__ import annotations

import numpy as np

from ..nn import (Dropout, Embedding, LayerNorm, Linear, Module, Tensor,
                  fused, is_fused_enabled, padding_attention_mask)
from .config import TransformerConfig
from .transformer import (TransformerEncoder, cross_match_features,
                          lexical_match_scores, token_similarity)

__all__ = ["BertEmbeddings", "BertModel", "BertPretrainingHeads"]


class BertEmbeddings(Module):
    """Sum of token, learned-position and segment embeddings, then LN."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        std = config.initializer_range
        self.token = Embedding(config.vocab_size, config.d_model, rng, std=std)
        self.position = Embedding(config.max_position, config.d_model, rng,
                                  std=std)
        self.segment = Embedding(config.type_vocab_size, config.d_model, rng,
                                 std=std)
        self.norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)
        self.max_position = config.max_position
        # Matchedness channel (see transformer.cross_match_features).
        self.match_proj = (Linear(4, config.d_model, rng, std=0.2,
                                  bias=False)
                           if config.match_bias else None)

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                match_features: np.ndarray | None = None) -> Tensor:
        input_ids = np.asarray(input_ids)
        batch, seq = input_ids.shape
        if seq > self.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position "
                f"{self.max_position}")
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        if segment_ids is None:
            segment_ids = np.zeros_like(input_ids)
        if is_fused_enabled():
            return Tensor(self.fused_forward(input_ids, positions,
                                             segment_ids, match_features))
        total = (self.token(input_ids) + self.position(positions)
                 + self.segment(segment_ids))
        if match_features is not None and self.match_proj is not None:
            total = total + self.match_proj(Tensor(match_features))
        return self.dropout(self.norm(total))

    def fused_forward(self, input_ids: np.ndarray, positions: np.ndarray,
                      segment_ids: np.ndarray,
                      match_features: np.ndarray | None) -> np.ndarray:
        """No-tape array path, bit-identical to :meth:`forward` (dropout
        is identity while the tape is off)."""
        total = self.token.weight.data[input_ids]
        total = total + self.position.weight.data[positions]
        total += self.segment.weight.data[segment_ids]
        if match_features is not None and self.match_proj is not None:
            # Raw matmul, not fused.linear: this projection stays out
            # of the kernel call counters.
            total += match_features @ self.match_proj.weight.data.T
        return fused.layer_norm(total, self.norm.weight.data,
                                self.norm.bias.data, eps=self.norm.eps)


class BertModel(Module):
    """Encoder backbone; also the backbone for RoBERTa (identical arch)."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator,
                 with_pooler: bool = True):
        super().__init__()
        self.config = config
        self.embeddings = BertEmbeddings(config, rng)
        self.encoder = TransformerEncoder(config, rng)
        self.pooler = (Linear(config.d_model, config.d_model, rng,
                              std=config.initializer_range)
                       if with_pooler else None)
        # Ids whose rows are excluded from the lexical match bias; set by
        # the tokenizer-aware caller (defaults to id 0 = padding).
        self.special_token_ids: set[int] = {0}

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                pad_mask: np.ndarray | None = None) -> Tensor:
        """Return final hidden states (B, T, D)."""
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
        hidden = self.embeddings(input_ids, segment_ids,
                                 match_features=match_features)
        return self.encoder(hidden, attention_mask=attention_mask,
                            match_scores=match_scores)

    def pooled_output(self, hidden: Tensor,
                      cls_index: int = 0) -> Tensor:
        """Tanh-pooled representation of the classification token."""
        cls_state = hidden[:, cls_index, :]
        if self.pooler is None:
            return cls_state
        return self.pooler(cls_state).tanh()

    def fused_pooled_output(self, hidden: np.ndarray,
                            cls_index: int = 0) -> np.ndarray:
        """Array twin of :meth:`pooled_output`, bit-identical."""
        cls_state = hidden[:, cls_index, :]
        if self.pooler is None:
            return cls_state
        # Raw ops, not fused.linear: the pooler stays out of the kernel
        # call counters.
        pooled = cls_state @ self.pooler.weight.data.T
        pooled += self.pooler.bias.data
        return np.tanh(pooled, out=pooled)


class BertPretrainingHeads(Module):
    """MLM vocabulary head (tied-style projection) and NSP head."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator,
                 with_nsp: bool = True):
        super().__init__()
        std = config.initializer_range
        self.transform = Linear(config.d_model, config.d_model, rng, std=std)
        self.transform_norm = LayerNorm(config.d_model,
                                        eps=config.layer_norm_eps)
        self.decoder = Linear(config.d_model, config.vocab_size, rng, std=std)
        self.nsp = (Linear(config.d_model, 2, rng, std=std)
                    if with_nsp else None)

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        transformed = self.transform_norm(self.transform(hidden).gelu())
        return self.decoder(transformed)

    def nsp_logits(self, pooled: Tensor) -> Tensor:
        if self.nsp is None:
            raise RuntimeError("this model was built without an NSP head "
                               "(RoBERTa drops the NSP objective)")
        return self.nsp(pooled)
