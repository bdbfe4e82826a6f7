// Package store is the durable, multi-tenant home of everything
// dbsherlockd accumulates at runtime: uploaded statistics datasets and
// the causal-model banks grown from user feedback (paper Section 6).
// Before this package both lived in process memory, so a daemon restart
// threw away the knowledge base the paper's merged models depend on.
//
// Two backends implement the same Store interface:
//
//   - Memory: the in-process registry the server always had, refactored
//     behind the interface. It doubles as the oracle in the
//     crash-injection battery.
//   - Durable: Memory as the materialized state plus a segmented
//     write-ahead log with CRC-framed records, fsync'd on commit and
//     replayed on open, compacted in the background into an atomically
//     renamed snapshot (see DESIGN.md §13 for the formats and the
//     fsync contract).
//
// Every operation is scoped by a tenant name, so one daemon can hold
// model banks for many users or databases and tenant A's learned models
// never pollute tenant B's ranking.
package store

import (
	"errors"
	"fmt"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/metrics"
)

// DefaultTenant is the namespace used when a caller does not specify
// one (requests without an X-DBSherlock-Tenant header land here).
const DefaultTenant = "default"

// MaxTenantLen bounds tenant names (they are embedded in every WAL
// record and in HTTP headers).
const MaxTenantLen = 128

// ErrUnavailable is wrapped by every write error after the durable
// backend has lost its log (a failed append, and every write after
// one whose rollback failed too; a failed compaction never does): the
// in-memory state is still served, but nothing further can be made
// durable, so writes are refused rather than silently diverging from
// disk. The server maps it to 503 store_unavailable.
var ErrUnavailable = errors.New("store: unavailable")

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("store: closed")

// ErrLocked is returned by OpenDurable and OpenDurableReadOnly when
// another process holds a conflicting lock on the data directory: the
// durable backend allows one writer, or any number of readers, never
// both. Fail fast instead of corrupting a live daemon's log.
var ErrLocked = errors.New("store: data directory locked by another process")

// ErrReadOnly is returned by every write on a store opened with
// OpenDurableReadOnly.
var ErrReadOnly = errors.New("store: opened read-only")

// ErrTooLarge is returned by writes whose encoded WAL record would
// exceed the on-disk frame limit: appending it would be acknowledged
// and then discarded as a torn tail on the next replay. The server
// maps it to 413 payload_too_large.
var ErrTooLarge = errors.New("store: record too large")

// DatasetInfo summarizes one stored dataset for listings.
type DatasetInfo struct {
	ID         string
	Rows       int
	Attributes int
}

// Store is the tenant-scoped persistence interface behind the server
// registry and the causal-model banks. Implementations are safe for
// concurrent use. Datasets are immutable once stored: PutDataset
// retains the pointer and GetDataset hands it back, so callers must
// not mutate a dataset after storing it (the server never does — CSV
// uploads are parsed fresh).
type Store interface {
	// PutDataset stores a dataset under a freshly allocated per-tenant
	// id ("ds-1", "ds-2", ...; ids are never reused, matching the
	// registry's historical behavior).
	PutDataset(tenant string, ds *metrics.Dataset) (id string, err error)
	// GetDataset resolves a dataset id within a tenant.
	GetDataset(tenant, id string) (*metrics.Dataset, bool)
	// Datasets lists a tenant's datasets in insertion order (the
	// server evicts the head of this list when over its cap).
	Datasets(tenant string) []DatasetInfo
	// DeleteDataset removes a dataset; ok reports whether it existed.
	DeleteDataset(tenant, id string) (ok bool, err error)

	// PutModel inserts or replaces the model bank entry for m.Cause.
	// The store keeps its own clone. Callers pass the already-merged
	// model (merging is the Repository's job, Section 6.2).
	PutModel(tenant string, m *causal.Model) error
	// Models returns clones of a tenant's models in insertion order.
	Models(tenant string) []*causal.Model
	// ReplaceModels atomically replaces a tenant's entire model bank
	// (PUT /v1/models import).
	ReplaceModels(tenant string, models []*causal.Model) error

	// Tenants lists every namespace that has ever stored anything, in
	// first-seen order.
	Tenants() []string
	// Close flushes and releases the backend. The Memory backend's
	// Close is a no-op.
	Close() error
}

// Health is a point-in-time snapshot of a backend's operational state,
// for readiness probes and the /v1/status endpoint. WAL fields are
// zero on the memory backend.
type Health struct {
	Backend       string `json:"backend"` // "memory" or "durable"
	ReadOnly      bool   `json:"read_only"`
	Err           string `json:"error,omitempty"` // first unrecoverable log error
	WALBytes      int64  `json:"wal_bytes"`       // every live WAL segment: what a restart replays
	WALSequence   uint64 `json:"wal_sequence"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	Tenants       int    `json:"tenants"`
	Datasets      int    `json:"datasets"` // across all tenants
	Models        int    `json:"models"`   // across all tenants
}

// Writable reports whether the backend currently accepts writes.
func (h Health) Writable() bool { return !h.ReadOnly && h.Err == "" }

// HealthReporter is the optional introspection interface both bundled
// backends implement; the server type-asserts it for /readyz and
// /v1/status so third-party Store implementations stay compatible.
type HealthReporter interface {
	Health() Health
}

// ValidTenant reports whether a tenant name is usable: non-empty, at
// most MaxTenantLen bytes, drawn from [A-Za-z0-9._-]. The charset keeps
// names safe for headers, flags, and log lines.
func ValidTenant(tenant string) error {
	if tenant == "" {
		return errors.New("store: empty tenant")
	}
	if len(tenant) > MaxTenantLen {
		return fmt.Errorf("store: tenant name longer than %d bytes", MaxTenantLen)
	}
	for i := 0; i < len(tenant); i++ {
		c := tenant[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: tenant name contains %q (allowed: letters, digits, '.', '_', '-')", c)
		}
	}
	return nil
}

// validateModel rejects models that must never enter a bank: they are
// the same invariants the JSON import path enforces (persist.go), so a
// corrupted WAL cannot smuggle garbage past replay.
func validateModel(m *causal.Model) error {
	if m == nil {
		return errors.New("store: nil model")
	}
	if m.Cause == "" {
		return errors.New("store: model with empty cause")
	}
	if m.Merged < 1 {
		return fmt.Errorf("store: model %q has merged count %d (want >= 1)", m.Cause, m.Merged)
	}
	for _, p := range m.Predicates {
		if p.Attr == "" {
			return fmt.Errorf("store: model %q has a predicate without an attribute", m.Cause)
		}
		switch p.Type {
		case metrics.Numeric:
			if !p.HasLower && !p.HasUpper {
				return fmt.Errorf("store: model %q: numeric predicate on %q has no bounds", m.Cause, p.Attr)
			}
		case metrics.Categorical:
			if len(p.Categories) == 0 {
				return fmt.Errorf("store: model %q: categorical predicate on %q has no categories", m.Cause, p.Attr)
			}
		default:
			return fmt.Errorf("store: model %q: predicate on %q has unknown type %d", m.Cause, p.Attr, int(p.Type))
		}
	}
	return nil
}
