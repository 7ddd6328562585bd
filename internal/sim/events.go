package sim

import (
	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/event"
)

// Pooled-event dispatch. Every scheduling site in the simulator routes
// through event.Queue.Schedule with a node receiver, an op code and a
// packed payload, so steady-state scheduling allocates nothing —
// previously each of these sites captured a closure per event.
//
// The payload convention: u64 carries the line (or region) address; u32
// carries the request kind plus the for-store flag (see packReq). Values
// the old closures captured but that are pure functions of the payload —
// the region of a line, a line's home controller — are recomputed at
// dispatch time instead of stored.
const (
	// nodeOpStep resumes the processor's run loop (schedule()).
	nodeOpStep uint8 = iota
	// nodeOpCompleteFill finishes a request at its data-arrival time.
	// u32 = packReq, u64 = line.
	nodeOpCompleteFill
	// nodeOpBroadcast performs a broadcast at its bus-grant time.
	// u32 = packReq, u64 = line.
	nodeOpBroadcast
	// nodeOpWritebackBcast performs a broadcast write-back at its grant
	// time. u64 = line.
	nodeOpWritebackBcast
	// nodeOpRegionProbe executes a §6 region-state probe. u64 = region.
	nodeOpRegionProbe
	// nodeOpResolveDir resolves a directory-mode request at its
	// home-arrival time. u32 = packReq, u64 = line.
	nodeOpResolveDir
	// nodeOpDirWriteback lands a directory-mode write-back at the home
	// controller. u64 = line.
	nodeOpDirWriteback
)

// forStoreBit marks a request issued on behalf of a store-buffer entry
// (completion must free the slot).
const forStoreBit = 1 << 16

// packReq packs a request kind and the for-store flag into an event's u32.
func packReq(kind coherence.ReqKind, forStore bool) uint32 {
	u := uint32(kind)
	if forStore {
		u |= forStoreBit
	}
	return u
}

func unpackReq(u32 uint32) (coherence.ReqKind, bool) {
	return coherence.ReqKind(u32 &^ forStoreBit), u32&forStoreBit != 0
}

// HandleEvent implements event.Handler. Node-owned ops dispatch here;
// fabric-owned ops (broadcasts, probes, home transactions) forward to the
// active coherence fabric.
func (n *node) HandleEvent(now event.Cycle, op uint8, u32 uint32, u64 uint64) {
	switch op {
	case nodeOpStep:
		n.scheduled = false
		n.step(now)
	case nodeOpCompleteFill:
		kind, forStore := unpackReq(u32)
		n.completeFill(kind, addr.LineAddr(u64), now, forStore)
	default:
		n.sys.fabric.handle(n, now, op, u32, u64)
	}
}
