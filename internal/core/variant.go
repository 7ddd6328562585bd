package core

import "cgct/internal/coherence"

// Protocol abstracts the region-protocol variant. The paper's main design
// is the seven-state protocol (Table 1); §3.4 sketches a scaled-back
// implementation that adds only ONE bit to the snoop response ("region
// cached externally?") and therefore needs only three region states:
// exclusive, not-exclusive, and invalid. The scaled-back variant is
// cheaper but blind to the clean/dirty distinction, so it cannot send
// instruction fetches direct in externally clean regions and cannot
// distinguish CD from CC on allocation.
type Protocol interface {
	// Name identifies the variant.
	Name() string
	// Route decides how a request may be routed given the region state.
	Route(st RegionState, k coherence.ReqKind) Route
	// AfterBroadcast returns the region state after the local processor's
	// broadcast completed with the given snoop response.
	AfterBroadcast(prev RegionState, k coherence.ReqKind, lineGrantedExclusive bool, resp coherence.SnoopResponse) RegionState
	// AfterDirect returns the region state after a non-broadcast request.
	AfterDirect(prev RegionState, k coherence.ReqKind, lineGrantedExclusive bool) RegionState
	// AfterExternal returns the region state after observing another
	// processor's broadcast, with the self-invalidation outcome.
	AfterExternal(prev RegionState, k coherence.ReqKind, requesterExclusive bool, lineCount int) (RegionState, ExternalOutcome)
}

// SevenState is the paper's full protocol (Table 1, Figures 3-5).
type SevenState struct{}

// Name implements Protocol.
func (SevenState) Name() string { return "7-state" }

// Route implements Protocol.
func (SevenState) Route(st RegionState, k coherence.ReqKind) Route { return RouteFor(st, k) }

// AfterBroadcast implements Protocol.
func (SevenState) AfterBroadcast(prev RegionState, k coherence.ReqKind, excl bool, resp coherence.SnoopResponse) RegionState {
	return AfterBroadcast(prev, k, excl, resp)
}

// AfterDirect implements Protocol.
func (SevenState) AfterDirect(prev RegionState, k coherence.ReqKind, excl bool) RegionState {
	return AfterDirect(prev, k, excl)
}

// AfterExternal implements Protocol.
func (SevenState) AfterExternal(prev RegionState, k coherence.ReqKind, reqExcl bool, lineCount int) (RegionState, ExternalOutcome) {
	return AfterExternal(prev, k, reqExcl, lineCount)
}

// ThreeState is the §3.4 scaled-back protocol. It reuses the RegionState
// encoding with only three values in play:
//
//	RegionInvalid — no information,
//	RegionDI      — exclusive (no other processor caches region lines),
//	RegionDD      — not exclusive (some other processor may).
type ThreeState struct{}

// Name implements Protocol.
func (ThreeState) Name() string { return "3-state" }

// threeExclusive reports whether st is the variant's exclusive state.
func threeExclusive(st RegionState) bool { return st == RegionDI || st == RegionCI }

// Route implements Protocol. Without the clean/dirty distinction, only
// exclusive regions avoid broadcasts; write-backs still go direct using
// the stored controller ID.
func (ThreeState) Route(st RegionState, k coherence.ReqKind) Route {
	if k == coherence.ReqWriteback {
		if st.Valid() {
			return RouteDirect
		}
		return RouteBroadcast
	}
	if !st.Valid() {
		return RouteBroadcast
	}
	if threeExclusive(st) {
		switch k {
		case coherence.ReqUpgrade, coherence.ReqDCBZ, coherence.ReqDCBI:
			return RouteLocal
		default:
			return RouteDirect
		}
	}
	return RouteBroadcast
}

// AfterBroadcast implements Protocol: the single response bit is the OR of
// the two seven-state bits.
func (ThreeState) AfterBroadcast(prev RegionState, k coherence.ReqKind, excl bool, resp coherence.SnoopResponse) RegionState {
	if k == coherence.ReqWriteback {
		return prev
	}
	if resp.RegionClean || resp.RegionDirty {
		return RegionDD // not exclusive
	}
	return RegionDI // exclusive
}

// AfterDirect implements Protocol: no movement between the two valid
// states is possible without a broadcast.
func (ThreeState) AfterDirect(prev RegionState, k coherence.ReqKind, excl bool) RegionState {
	if !prev.Valid() {
		coherence.Violate(coherence.InvariantError{
			Check: "region-route", States: prev.String(),
			Detail: "direct request with invalid region state",
		})
	}
	return prev
}

// AfterExternal implements Protocol: any external request (except a
// write-back) makes the region not-exclusive; empty regions still
// self-invalidate.
func (ThreeState) AfterExternal(prev RegionState, k coherence.ReqKind, reqExcl bool, lineCount int) (RegionState, ExternalOutcome) {
	if !prev.Valid() || k == coherence.ReqWriteback {
		return prev, ExtKept
	}
	if lineCount == 0 {
		return RegionInvalid, ExtSelfInvalidated
	}
	return RegionDD, ExtKept
}

// compile-time interface checks
var (
	_ Protocol = SevenState{}
	_ Protocol = ThreeState{}
)

// SevenStateReadShared is the §3.1 design alternative: identical to the
// full protocol except that ordinary loads in externally clean regions
// (CC/DC) go directly to memory and take the line Shared instead of
// broadcasting for an exclusive copy. The paper predicts that this trades
// broadcasts for "a large number of upgrades" when the loaded lines are
// later written. No experiment runs this variant (RCA.ReadSharedDirect
// selects it); sim's TestReadSharedAlternative checks the upgrade
// inflation.
type SevenStateReadShared struct{ SevenState }

// Name implements Protocol.
func (SevenStateReadShared) Name() string { return "7-state/read-shared" }

// Route implements Protocol: loads join instruction fetches on the direct
// path in externally clean regions.
func (v SevenStateReadShared) Route(st RegionState, k coherence.ReqKind) Route {
	if st.ExternallyClean() && (k == coherence.ReqRead || k == coherence.ReqPrefetch) {
		return RouteDirect
	}
	return v.SevenState.Route(st, k)
}

var _ Protocol = SevenStateReadShared{}
