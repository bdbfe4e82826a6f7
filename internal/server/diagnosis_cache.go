package server

import (
	"dbsherlock"
	"dbsherlock/internal/diagcache"
)

// DefaultDiagCacheEntries bounds the diagnosis cache's entry count when
// WithDiagnosisCache is given no explicit entry bound. 256 incidents is
// far more than any realistic set of concurrently hot diagnoses while
// keeping the LRU scan trivially cheap.
const DefaultDiagCacheEntries = 256

// WithDiagnosisCache turns on the cross-request diagnosis cache for
// /v1/explain and /v1/explain/batch: the expensive intermediate state
// of each diagnosis (prepared partition spaces, extracted predicates —
// see dbsherlock.DiagnosisState) is retained keyed by (tenant, dataset,
// dataset generation, region) and reused on repeat requests
// of the same incident, which skips Algorithm 1 entirely and re-ranks
// only the causal models. Responses are byte-identical with and without
// the cache.
//
// maxEntries bounds the number of retained diagnosis contexts (<= 0
// takes DefaultDiagCacheEntries); maxBytes bounds their accounted
// retained heap footprint (<= 0 means no byte budget). Least recently
// used entries are evicted first; deleting or evicting a dataset drops
// its entries immediately. rules:true requests bypass the cache — they
// diagnose through the server's rules analyzer, and the key does not
// record which analyzer filled an entry.
func WithDiagnosisCache(maxEntries int, maxBytes int64) Option {
	return func(s *Server) {
		if maxEntries <= 0 {
			maxEntries = DefaultDiagCacheEntries
		}
		s.diagCacheEntries = maxEntries
		s.diagCacheBytes = maxBytes
	}
}

// diagKey composes the cache key for one explain request. The dataset's
// generation number makes keys self-invalidating across mutations, and
// the region fingerprint distinguishes incidents within one dataset
// (the normal region is derived deterministically from the abnormal
// one, so fingerprinting the abnormal region suffices). A fingerprint
// collision maps two incidents to one entry — the engine detects the
// mismatch on reuse and silently runs cold, so collisions cost a miss,
// never a wrong answer.
func (s *Server) diagKey(tenant, datasetID string, ds *dbsherlock.Dataset, abnormal *dbsherlock.Region) diagcache.Key {
	return diagcache.Key{
		Tenant:     tenant,
		DatasetID:  datasetID,
		Generation: ds.Generation(),
		RegionFP:   abnormal.Fingerprint(),
	}
}

// invalidateDiagCache drops a deleted or evicted dataset's cached
// diagnosis state, freeing its partition spaces immediately instead of
// waiting for LRU aging.
func (s *Server) invalidateDiagCache(tenant, datasetID string) {
	if s.diagCache != nil {
		s.diagCache.InvalidateDataset(tenant, datasetID)
	}
}
