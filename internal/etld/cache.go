package etld

import (
	"hash/maphash"
	"sync"
)

// Parts is every derived view of one hostname, computed once: the
// normalized form, its public suffix, registrable domain (eTLD+1),
// top-level domain, second-level label and Figure 6 region.
type Parts struct {
	// Host is the normalized hostname. It doubles as the interned
	// canonical string: every lookup of an equal hostname returns this
	// exact string, so aggregation maps keyed by it share one backing
	// array instead of one copy per visit record.
	Host        string
	Suffix      string
	Registrable string
	TLD         string
	SecondLevel string
	Region      Region
}

// cacheShards bounds lock contention during parallel dataset passes; a
// power of two so the hash reduces with a mask.
const cacheShards = 64

// Cache memoizes hostname splitting. The analysis index feeds every
// hostname of a crawl through one Cache so each distinct host is
// normalized and split exactly once regardless of how many visits,
// resources, or experiments mention it. Safe for concurrent use.
type Cache struct {
	seed   maphash.Seed
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]*Parts
}

// NewCache returns an empty Cache.
func NewCache() *Cache {
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*Parts)
	}
	return c
}

// Parts returns the memoized split of host, computing it on first sight.
// The first goroutine to store a host wins; later callers get its entry,
// so the returned pointer is stable for the cache's lifetime.
func (c *Cache) Parts(host string) *Parts {
	sh := &c.shards[maphash.String(c.seed, host)&(cacheShards-1)]
	sh.mu.RLock()
	p := sh.m[host]
	sh.mu.RUnlock()
	if p != nil {
		return p
	}
	norm := Normalize(host)
	p = &Parts{
		Host:        norm,
		Suffix:      PublicSuffix(norm),
		Registrable: RegistrableDomain(norm),
		TLD:         TLD(norm),
		SecondLevel: SecondLevelLabel(norm),
		Region:      RegionOf(norm),
	}
	sh.mu.Lock()
	if q, ok := sh.m[host]; ok {
		p = q
	} else {
		sh.m[host] = p
	}
	sh.mu.Unlock()
	return p
}

// Registrable is a memoized RegistrableDomain.
func (c *Cache) Registrable(host string) string { return c.Parts(host).Registrable }

// SecondLevel is a memoized SecondLevelLabel.
func (c *Cache) SecondLevel(host string) string { return c.Parts(host).SecondLevel }

// RegionOf is a memoized RegionOf.
func (c *Cache) RegionOf(host string) Region { return c.Parts(host).Region }

// SameSecondLevel is a memoized SameSecondLevel.
func (c *Cache) SameSecondLevel(a, b string) bool {
	sa, sb := c.SecondLevel(a), c.SecondLevel(b)
	return sa != "" && sa == sb
}

// Len returns the number of distinct hostnames cached.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
