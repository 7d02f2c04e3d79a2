package sim

import (
	"sync"

	"btr/internal/trace"
)

// DefaultProfileCacheBytes is NewProfileCache's budget: large enough
// that a whole suite's attribution columns stay resident at the default
// scale, small enough that a paper-scale run (where one column alone is
// tens of gigabytes) keeps only the most recently used inputs.
const DefaultProfileCacheBytes = 1 << 28 // 256 MiB

// ProfileCache caches the classified pass-1 result of an input — the
// InputResult shell sans Miss (profiles, classes, Exec, hard-distance
// histogram) plus the per-event attribution column — so a later run
// with a matching key skips the profiling replay entirely, not just the
// generator run a trace.Cache hit saves. Keys are the (name,
// fingerprint, scale, chunk) quadruple of trace.CacheKey — which pins a
// recording (and therefore its derived classification) bit for bit —
// plus the hard-distance window, which sizes the cached histogram.
// Callers must pass normalised trace keys (trace.CacheKey.Normalised)
// so configs that spell the defaults differently share entries.
//
// Entries deliberately do NOT hold the recorded trace: the recording's
// lifetime belongs to the trace.Cache and its LRU byte budget, and a
// profile entry pinning it would defeat that bound. profileCached re-
// fetches the recording on a hit and recomputes from scratch in the
// rare case it was evicted without a spill path. What an entry does
// retain — the attribution column (~1 byte/event) and the per-branch
// profile maps — is an order of magnitude lighter than the recordings,
// but still O(trace), so the cache carries its own LRU byte budget:
// entries past it are evicted least-recently-used and simply recomputed
// on the next run, the same degrade-to-recompute contract the trace
// cache has.
//
// Served results share the immutable pass-1 artifacts (Profiles map,
// ClassMap, histogram, class column) with every other run of the same
// key; only the returned InputResult struct itself is a fresh copy,
// whose zero Miss the caller's own sweep fills in. Callers must treat
// the shared artifacts as read-only — the pipeline does. Eviction never
// invalidates a served result: the artifacts stay reachable through the
// result, the cache merely drops its own reference.
type ProfileCache struct {
	mu       sync.Mutex
	entries  map[profileKey]*profileEntry
	maxBytes int64 // 0 = unbounded
	bytes    int64
	tick     int64
	stats    ProfileCacheStats
}

// profileKey pins everything a cached pass-1 result depends on: the
// recording's identity plus the hard-distance window, which shapes the
// cached histogram's bin count — configs with different windows must
// not serve each other's histograms.
type profileKey struct {
	trace.CacheKey
	window int
}

type profileEntry struct {
	tmpl     InputResult // Miss all-zero, Recorded nil; the rest filled
	classIdx []uint8
	size     int64 // estimated footprint, charged against the budget
	used     int64 // LRU clock tick of the last touch
}

// ProfileCacheStats counts cache traffic. ResidentBytes is the
// estimated footprint of the retained entries; Evicted counts entries
// dropped to respect the byte budget.
type ProfileCacheStats struct {
	Hits          int64
	Misses        int64
	Evicted       int64
	Resident      int
	ResidentBytes int64
}

// NewProfileCache returns an empty profile cache with the default byte
// budget (DefaultProfileCacheBytes).
func NewProfileCache() *ProfileCache {
	return NewProfileCacheBytes(DefaultProfileCacheBytes)
}

// NewProfileCacheBytes returns an empty profile cache bounded to
// roughly maxBytes of retained pass-1 artifacts; 0 (or negative) means
// unbounded.
func NewProfileCacheBytes(maxBytes int64) *ProfileCache {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &ProfileCache{entries: make(map[profileKey]*profileEntry), maxBytes: maxBytes}
}

// entrySize estimates an entry's heap footprint: the attribution column
// dominates; the profile and class maps are charged at rough per-entry
// costs (bucket + key + value struct), the histogram at its bins, plus
// a fixed overhead for the shell itself.
func entrySize(e *profileEntry) int64 {
	size := int64(len(e.classIdx)) + 256
	if e.tmpl.HardDistances != nil {
		size += int64(len(e.tmpl.HardDistances.Bins)) * 8
	}
	size += int64(len(e.tmpl.Profiles)) * 96
	size += int64(len(e.tmpl.Classes)) * 24
	return size
}

// get returns a sweep-ready copy of the cached shell for key, with
// Recorded still nil — the caller supplies the recording.
func (c *ProfileCache) get(key trace.CacheKey, window int) (*InputResult, []uint8, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[profileKey{key, window}]
	if e == nil {
		c.stats.Misses++
		return nil, nil, false
	}
	c.stats.Hits++
	c.tick++
	e.used = c.tick
	res := e.tmpl // struct copy: private Miss, shared pass-1 artifacts
	return &res, e.classIdx, true
}

// put snapshots res (which must not have Miss filled yet — the
// attribution grid calls it before the sweep launches) under key, dropping the recording
// reference so the trace.Cache stays the recording's only owner, then
// evicts least-recently-used entries past the byte budget. First writer
// wins; a concurrent duplicate of the same deterministic result is
// dropped.
func (c *ProfileCache) put(key trace.CacheKey, window int, res *InputResult, classIdx []uint8) {
	pk := profileKey{key, window}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[pk]; ok {
		return
	}
	e := &profileEntry{tmpl: *res, classIdx: classIdx}
	e.tmpl.Recorded = nil
	e.size = entrySize(e)
	c.tick++
	e.used = c.tick
	c.entries[pk] = e
	c.bytes += e.size
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the budget holds.
// The newest entry is the most recently used, so a single oversized
// entry survives alone rather than thrashing the whole cache.
func (c *ProfileCache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && len(c.entries) > 1 {
		var victim profileKey
		oldest := int64(1<<63 - 1)
		for k, e := range c.entries {
			if e.used < oldest {
				oldest = e.used
				victim = k
			}
		}
		c.bytes -= c.entries[victim].size
		delete(c.entries, victim)
		c.stats.Evicted++
	}
}

// Stats returns a snapshot of the counters.
func (c *ProfileCache) Stats() ProfileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = len(c.entries)
	s.ResidentBytes = c.bytes
	return s
}
