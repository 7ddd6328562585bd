package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
)

// vnodesPerPeer is how many virtual nodes each peer places on the ring.
const vnodesPerPeer = 64

// ring is a consistent-hash ring over the fixed peer list: each peer
// owns vnodesPerPeer virtual nodes placed by sha256 of "url#i", and a
// key is owned by the first alive virtual node clockwise from the key's
// hash. Consistent hashing keeps ownership stable as peers are evicted
// and reinstated — when a peer is evicted, only its keys move (to the
// next alive peer on the ring), so a flapping peer cannot reshuffle the
// whole fleet's cache placement.
type ring struct {
	members []string // sorted; fixed at newRing

	mu     sync.RWMutex
	vnodes []vnode         // sorted by hash
	alive  map[string]bool // peer URL → health
}

type vnode struct {
	hash uint64
	peer string
}

// hashPoint places a string on the ring. sha256 (not a fast
// non-cryptographic hash) so placement matches the content addresses
// keys already use and cannot be engineered into hot spots.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring over peers (deduplicated), all initially
// alive.
func newRing(peers []string) *ring {
	r := &ring{alive: make(map[string]bool)}
	for _, p := range peers {
		if r.alive[p] {
			continue // duplicate peer: one membership, one set of vnodes
		}
		r.alive[p] = true
		r.members = append(r.members, p)
		for i := 0; i < vnodesPerPeer; i++ {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(i))
			r.vnodes = append(r.vnodes, vnode{hash: hashPoint(p + "#" + string(buf[:])), peer: p})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].peer < r.vnodes[j].peer // total order: ties cannot flap
	})
	return r
}

// owners returns up to r distinct alive peers in clockwise ownership
// order from the key's hash point: the first is the owner, the rest are
// the replica holders the key is pushed to. Fewer than r peers alive
// yields a shorter list; every peer dead yields nil.
func (r *ring) owners(key string, want int) []string {
	if want <= 0 {
		want = 1
	}
	h := hashPoint(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.vnodes)
	if n == 0 {
		return nil
	}
	start := sort.Search(n, func(i int) bool { return r.vnodes[i].hash >= h })
	var out []string
	seen := make(map[string]bool, want)
	for i := 0; i < n && len(out) < want; i++ {
		v := r.vnodes[(start+i)%n]
		if r.alive[v.peer] && !seen[v.peer] {
			seen[v.peer] = true
			out = append(out, v.peer)
		}
	}
	return out
}

// setAlive flips a peer's health, changing which vnodes owners may land
// on. Unknown peers are ignored: a probe result can never grow the
// membership.
func (r *ring) setAlive(peer string, alive bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[peer]; ok {
		r.alive[peer] = alive
	}
}

// isAlive reports a peer's current health (false for unknown peers).
func (r *ring) isAlive(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[peer]
}
