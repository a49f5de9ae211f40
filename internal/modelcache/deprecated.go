package modelcache

// Sharded is the former name of the concurrent cache.
//
// Deprecated: use Cache.
type Sharded = Cache

// NewSharded returns New(capacity, policy); shards is ignored.
//
// Deprecated: use New.
func NewSharded(capacity int, policy Policy, shards int) (*Cache, error) {
	return New(capacity, policy)
}
