package dbsherlock

import "dbsherlock/internal/causal"

// ModelBank is a repository of merged causal models — the unit of
// knowledge the server keeps per tenant. An Analyzer always ranks and
// learns against exactly one bank; multi-tenant callers hold one bank
// per namespace and derive a view with WithModelBank.
type ModelBank = causal.Repository

// NewModelBank returns an empty model bank.
func NewModelBank() *ModelBank { return causal.NewRepository() }

// ModelBank returns the bank the analyzer currently ranks and learns
// against (the one LoadModels replaces).
func (a *Analyzer) ModelBank() *ModelBank { return a.repository() }

// WithModelBank returns an analyzer that shares this one's parameters,
// domain knowledge, lambda, and tracing setting but ranks and learns
// against bank. The configuration is copied, not aliased: the derived
// analyzer is an independent view, and LoadModels on one does not
// affect the other. A nil bank returns the receiver.
func (a *Analyzer) WithModelBank(bank *ModelBank) *Analyzer {
	if bank == nil {
		return a
	}
	return &Analyzer{
		params:    a.params,
		knowledge: a.knowledge,
		lambda:    a.lambda,
		tracing:   a.tracing,
		repo:      bank,
	}
}
