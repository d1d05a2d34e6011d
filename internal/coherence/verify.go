package coherence

import (
	"fmt"

	"repro/internal/cache"
)

// CheckInvariants structurally verifies a drained cluster's directory and
// cache state for the given keys, returning the first violation found:
//
//	a. Every blade agrees on each key's home, the home is in the
//	   membership, and only the home holds an active directory entry.
//	b. Directory Modified(o) ⇒ blade o holds the only cached copy, in M.
//	c. Directory Shared ⇒ every cached copy is clean S and registered in
//	   the home's sharer set; at most one M copy exists cluster-wide.
//
// The checker inspects live engine state without moving simulated time,
// so it must only run while the cluster is quiescent (no client ops, no
// protocol messages in flight). It deliberately ignores any upper-layer
// hot-key caches: those hold shadow copies outside the directory's
// jurisdiction, kept honest by write-through invalidation rather than by
// sharer-set membership.
func CheckInvariants(engines []*Engine, keys []cache.Key) error {
	if len(engines) == 0 {
		return fmt.Errorf("coherence: no engines to verify")
	}
	for _, key := range keys {
		// a. One home, agreed by everyone, and it is alive.
		home, err := engines[0].Home(key)
		if err != nil {
			return fmt.Errorf("key %v: no home: %w", key, err)
		}
		for _, e := range engines {
			got, err := e.Home(key)
			if err != nil || got != home {
				return fmt.Errorf("key %v: blade%d says home=%d (err %v), blade%d says %d",
					key, e.self, got, err, engines[0].self, home)
			}
		}
		alive := false
		for _, b := range engines[home].alive {
			if b == home {
				alive = true
			}
		}
		if !alive {
			return fmt.Errorf("key %v: home %d not in membership", key, home)
		}
		for _, e := range engines {
			if e.self == home {
				continue
			}
			if ent, ok := e.keys[e.ids.ID(key)]; ok && ent.state != dirInvalid {
				return fmt.Errorf("key %v: non-home blade%d holds active dir entry state=%d",
					key, e.self, ent.state)
			}
		}

		// Collect every cached copy.
		var copies []copyAt
		for _, e := range engines {
			if ent, ok := e.cache.Peek(key); ok && ent.State != cache.Invalid {
				copies = append(copies, copyAt{e.self, ent})
			}
		}
		var mCopies []copyAt
		for _, c := range copies {
			if c.ent.State == cache.Modified {
				mCopies = append(mCopies, c)
			}
		}
		if len(mCopies) > 1 {
			return fmt.Errorf("key %v: %d Modified copies cluster-wide", key, len(mCopies))
		}

		he := engines[home]
		dirEnt, hasDir := he.keys[he.ids.ID(key)]
		state := dirInvalid
		if hasDir {
			state = dirEnt.state
		}
		switch state {
		case dirModified:
			// b. Exactly the owner caches it, in M.
			if len(copies) != 1 || copies[0].blade != int(dirEnt.owner) || copies[0].ent.State != cache.Modified {
				return fmt.Errorf("key %v: dir Modified(owner %d) but copies %v", key, dirEnt.owner, describe(copies))
			}
		case dirShared:
			// c. Cached copies are clean S and registered as sharers.
			for _, c := range copies {
				if c.ent.State != cache.Shared || c.ent.Dirty {
					return fmt.Errorf("key %v: dir Shared but blade%d holds state=%v dirty=%v",
						key, c.blade, c.ent.State, c.ent.Dirty)
				}
				if _, ok := dirEnt.sharers.find(c.blade); !ok {
					return fmt.Errorf("key %v: blade%d caches S copy but is not in sharer set %v",
						key, c.blade, dirEnt.sharers)
				}
			}
			if len(mCopies) != 0 {
				return fmt.Errorf("key %v: dir Shared with a Modified copy at blade%d", key, mCopies[0].blade)
			}
		case dirInvalid:
			if len(copies) != 0 {
				return fmt.Errorf("key %v: dir Invalid but cached at %v", key, describe(copies))
			}
		}
	}
	return nil
}

// copyAt is one blade's cached copy of a key, for invariant reporting.
type copyAt struct {
	blade int
	ent   *cache.Entry
}

func describe(copies []copyAt) []string {
	out := make([]string, 0, len(copies))
	for _, c := range copies {
		out = append(out, fmt.Sprintf("blade%d:%v dirty=%v", c.blade, c.ent.State, c.ent.Dirty))
	}
	return out
}
