package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Version is one stored object version: its bucket-unique sequence
// number, size, and the layout mapping its bytes onto pfs files.
type Version struct {
	Seq    uint64
	Size   int64
	Layout Layout
	Mtime  sim.Time
}

// ObjectInfo is one ListObjects row.
type ObjectInfo struct {
	Key   string
	Size  int64
	Seq   uint64
	Mtime sim.Time
}

// BucketInfo summarizes one bucket for status displays.
type BucketInfo struct {
	Name    string
	Owner   string
	Shard   int
	Objects int64
	Bytes   int64
}

type bucketMeta struct {
	name  string
	owner string

	keys    []string // sorted; the ListObjects pagination index
	objects map[string]Version

	objN  int64
	bytes int64
}

// metaShard is one index server: a serial executor (semaphore of one)
// with a fixed per-op service time. This is the tier that saturates —
// one shard's ceiling is 1/OpTime index ops per second, and E16 shows
// the gateway throughput ceiling moving when buckets spread over more
// shards (yig's "add metadata servers" scaling story).
type metaShard struct {
	sem     *sim.Semaphore
	buckets map[string]*bucketMeta
	ops     int64
	busy    sim.Duration
}

// Meta is the bucket-metadata index tier (yig tier 2): bucket records,
// each key's version, sharded by bucket name.
type Meta struct {
	shards []*metaShard
	// OpTime is the modeled service time of one index operation
	// (default DefaultMetaOpTime).
	OpTime sim.Duration
}

// DefaultMetaOpTime is the service time of one index operation when
// Config.MetaOpTime is zero.
const DefaultMetaOpTime = 250 * sim.Microsecond

func newMeta(k *sim.Kernel, shards int, opTime sim.Duration) *Meta {
	if shards < 1 {
		shards = 1
	}
	if opTime <= 0 {
		opTime = DefaultMetaOpTime
	}
	m := &Meta{shards: make([]*metaShard, shards), OpTime: opTime}
	for i := range m.shards {
		m.shards[i] = &metaShard{sem: sim.NewSemaphore(k, 1), buckets: make(map[string]*bucketMeta)}
	}
	return m
}

// shardOf maps a bucket to its index shard.
func (m *Meta) shardOf(bucket string) int {
	h := fnv.New32a()
	h.Write([]byte(bucket))
	return int(h.Sum32() % uint32(len(m.shards)))
}

// do runs fn as nops index operations on bucket's shard: FIFO through the
// shard's serial executor, charging nops service times. All index state
// mutation happens inside fn, under the shard.
func (m *Meta) do(p *sim.Proc, bucket string, nops int, fn func(*metaShard) error) error {
	s := m.shards[m.shardOf(bucket)]
	s.sem.Acquire(p, 1)
	defer s.sem.Release(1)
	d := m.OpTime * sim.Duration(nops)
	p.Sleep(d)
	s.ops += int64(nops)
	s.busy += d
	return fn(s)
}

func (s *metaShard) bucket(name string) (*bucketMeta, error) {
	b, ok := s.buckets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBucket, name)
	}
	return b, nil
}

// insertKey keeps the pagination index sorted.
func (b *bucketMeta) insertKey(key string) {
	i := sort.SearchStrings(b.keys, key)
	if i < len(b.keys) && b.keys[i] == key {
		return
	}
	b.keys = append(b.keys, "")
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = key
}

// list pages through keys with prefix, strictly after startAfter,
// returning at most max rows plus whether more remain.
func (b *bucketMeta) list(prefix, startAfter string, max int) (rows []ObjectInfo, truncated bool) {
	if max <= 0 {
		max = 1000
	}
	start := sort.SearchStrings(b.keys, prefix)
	if startAfter != "" && startAfter >= prefix {
		i := sort.SearchStrings(b.keys, startAfter)
		if i < len(b.keys) && b.keys[i] == startAfter {
			i++
		}
		if i > start {
			start = i
		}
	}
	for i := start; i < len(b.keys); i++ {
		key := b.keys[i]
		if !strings.HasPrefix(key, prefix) {
			break
		}
		v := b.objects[key]
		if len(rows) == max {
			return rows, true
		}
		rows = append(rows, ObjectInfo{Key: key, Size: v.Size, Seq: v.Seq, Mtime: v.Mtime})
	}
	return rows, false
}

// ShardLoads returns each shard's cumulative index-op count — the load
// skew signal behind the per-shard telemetry gauges.
func (m *Meta) ShardLoads() []int64 {
	out := make([]int64, len(m.shards))
	for i, s := range m.shards {
		out[i] = s.ops
	}
	return out
}
