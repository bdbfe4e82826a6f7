package store

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/metrics"
)

// tenantState is one namespace's materialized state. Insertion order is
// tracked for both datasets (eviction policy) and models (deterministic
// listings and byte-identical snapshots).
type tenantState struct {
	nextID     int // next dataset number to allocate (1-based)
	dsOrder    []string
	datasets   map[string]*metrics.Dataset
	modelOrder []string
	models     map[string]*causal.Model
}

func newTenantState() *tenantState {
	return &tenantState{
		nextID:   1,
		datasets: make(map[string]*metrics.Dataset),
		models:   make(map[string]*causal.Model),
	}
}

// Memory is the in-process Store backend: the server's historical
// registry refactored behind the interface. It is also the oracle the
// crash-injection battery replays op sequences against, so its apply
// methods are the single definition of every operation's semantics —
// the Durable backend applies through the same code.
type Memory struct {
	mu          sync.RWMutex
	tenants     map[string]*tenantState
	tenantOrder []string
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{tenants: make(map[string]*tenantState)}
}

var _ Store = (*Memory)(nil)

// tenant returns (creating if needed) a namespace. Caller holds mu.
func (m *Memory) tenant(name string) *tenantState {
	ts, ok := m.tenants[name]
	if !ok {
		ts = newTenantState()
		m.tenants[name] = ts
		m.tenantOrder = append(m.tenantOrder, name)
	}
	return ts
}

// image returns a point-in-time copy of the state's structure: the
// order slices and the pointer maps. The datasets and models themselves
// are shared, because nothing mutates them once stored — datasets by
// the Store contract, models because every apply installs a fresh
// clone. The slices are copied, not aliased: applyReplaceModels reuses
// modelOrder's backing array. Snapshot compaction takes the image under
// the durable store's lock and encodes it outside.
func (m *Memory) image() *Memory {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := &Memory{
		tenants:     make(map[string]*tenantState, len(m.tenants)),
		tenantOrder: slices.Clone(m.tenantOrder),
	}
	for name, ts := range m.tenants {
		out.tenants[name] = &tenantState{
			nextID:     ts.nextID,
			dsOrder:    slices.Clone(ts.dsOrder),
			datasets:   maps.Clone(ts.datasets),
			modelOrder: slices.Clone(ts.modelOrder),
			models:     maps.Clone(ts.models),
		}
	}
	return out
}

// peekDatasetID returns the id the next PutDataset for the tenant will
// allocate, without allocating it. The durable backend uses it to name
// the dataset inside the WAL record before committing.
func (m *Memory) peekDatasetID(tenant string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	next := 1
	if ts, ok := m.tenants[tenant]; ok {
		next = ts.nextID
	}
	return "ds-" + strconv.Itoa(next)
}

// applyPutDataset stores ds under the given id and advances the
// allocator past it, so replaying a WAL reconstructs the same counter
// (ids are never reused even across deletes).
func (m *Memory) applyPutDataset(tenant, id string, ds *metrics.Dataset) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tenant(tenant)
	if _, exists := ts.datasets[id]; !exists {
		ts.dsOrder = append(ts.dsOrder, id)
	}
	ts.datasets[id] = ds
	if n, ok := strings.CutPrefix(id, "ds-"); ok {
		if v, err := strconv.Atoi(n); err == nil && v >= ts.nextID {
			ts.nextID = v + 1
		}
	}
}

func (m *Memory) applyDeleteDataset(tenant, id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tenants[tenant]
	if !ok {
		return false
	}
	if _, ok := ts.datasets[id]; !ok {
		return false
	}
	delete(ts.datasets, id)
	for i, d := range ts.dsOrder {
		if d == id {
			ts.dsOrder = append(ts.dsOrder[:i], ts.dsOrder[i+1:]...)
			break
		}
	}
	return true
}

func (m *Memory) applyPutModel(tenant string, mdl *causal.Model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tenant(tenant)
	if _, exists := ts.models[mdl.Cause]; !exists {
		ts.modelOrder = append(ts.modelOrder, mdl.Cause)
	}
	ts.models[mdl.Cause] = mdl.Clone()
}

func (m *Memory) applyReplaceModels(tenant string, models []*causal.Model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tenant(tenant)
	ts.models = make(map[string]*causal.Model, len(models))
	ts.modelOrder = ts.modelOrder[:0]
	for _, mdl := range models {
		if _, dup := ts.models[mdl.Cause]; !dup {
			ts.modelOrder = append(ts.modelOrder, mdl.Cause)
		}
		ts.models[mdl.Cause] = mdl.Clone()
	}
}

// PutDataset implements Store.
func (m *Memory) PutDataset(tenant string, ds *metrics.Dataset) (string, error) {
	if err := ValidTenant(tenant); err != nil {
		return "", err
	}
	if ds == nil {
		return "", fmt.Errorf("store: nil dataset")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tenant(tenant)
	id := "ds-" + strconv.Itoa(ts.nextID)
	ts.nextID++
	ts.datasets[id] = ds
	ts.dsOrder = append(ts.dsOrder, id)
	return id, nil
}

// GetDataset implements Store.
func (m *Memory) GetDataset(tenant, id string) (*metrics.Dataset, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ts, ok := m.tenants[tenant]
	if !ok {
		return nil, false
	}
	ds, ok := ts.datasets[id]
	return ds, ok
}

// Datasets implements Store.
func (m *Memory) Datasets(tenant string) []DatasetInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ts, ok := m.tenants[tenant]
	if !ok {
		return nil
	}
	out := make([]DatasetInfo, 0, len(ts.dsOrder))
	for _, id := range ts.dsOrder {
		ds := ts.datasets[id]
		out = append(out, DatasetInfo{ID: id, Rows: ds.Rows(), Attributes: ds.NumAttrs()})
	}
	return out
}

// DeleteDataset implements Store.
func (m *Memory) DeleteDataset(tenant, id string) (bool, error) {
	if err := ValidTenant(tenant); err != nil {
		return false, err
	}
	return m.applyDeleteDataset(tenant, id), nil
}

// PutModel implements Store.
func (m *Memory) PutModel(tenant string, mdl *causal.Model) error {
	if err := ValidTenant(tenant); err != nil {
		return err
	}
	if err := validateModel(mdl); err != nil {
		return err
	}
	m.applyPutModel(tenant, mdl)
	return nil
}

// Models implements Store.
func (m *Memory) Models(tenant string) []*causal.Model {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ts, ok := m.tenants[tenant]
	if !ok {
		return nil
	}
	out := make([]*causal.Model, 0, len(ts.modelOrder))
	for _, cause := range ts.modelOrder {
		out = append(out, ts.models[cause].Clone())
	}
	return out
}

// ReplaceModels implements Store.
func (m *Memory) ReplaceModels(tenant string, models []*causal.Model) error {
	if err := ValidTenant(tenant); err != nil {
		return err
	}
	for _, mdl := range models {
		if err := validateModel(mdl); err != nil {
			return err
		}
	}
	m.applyReplaceModels(tenant, models)
	return nil
}

// Tenants implements Store.
func (m *Memory) Tenants() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, len(m.tenantOrder))
	copy(out, m.tenantOrder)
	return out
}

// Close implements Store; the memory backend has nothing to flush.
func (m *Memory) Close() error { return nil }

// Health implements HealthReporter: the memory backend is always
// writable, and the counts are totals across every tenant.
func (m *Memory) Health() Health {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := Health{Backend: "memory", Tenants: len(m.tenantOrder)}
	for _, ts := range m.tenants {
		h.Datasets += len(ts.datasets)
		h.Models += len(ts.models)
	}
	return h
}
