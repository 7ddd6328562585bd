package sim

import (
	"fmt"
	"slices"

	"cgct/internal/addr"
	"cgct/internal/cache"
	"cgct/internal/coherence"
	"cgct/internal/core"
	"cgct/internal/event"
)

// snoopScan holds what the last broadcast or region probe read from the
// machine's banks: the nodes holding the line (L2), an entry for the
// region (RCA) and a non-zero counter in the region's bucket (CRH), each
// in node order, requester included, and which of the three it read. The
// slices are reused from one scan to the next.
type snoopScan struct {
	lines                               []cache.Holder
	regions                             []core.Holder
	buckets                             []int
	readLines, readRegions, readBuckets bool
}

// reset marks every bank unread.
func (sc *snoopScan) reset() {
	sc.readLines, sc.readRegions, sc.readBuckets = false, false, false
}

// scanLines returns every node holding line, with its state.
func (s *System) scanLines(line addr.LineAddr) []cache.Holder {
	s.scan.lines, s.scan.readLines = s.l2s.Holders(line, s.scan.lines[:0]), true
	return s.scan.lines
}

// scanRegions returns every node whose RCA holds an entry for region,
// with the entry.
func (s *System) scanRegions(region addr.RegionAddr) []core.Holder {
	s.scan.regions, s.scan.readRegions = s.rcas.Holders(region, s.scan.regions[:0]), true
	return s.scan.regions
}

// scanBuckets returns every node whose cached-region hash counts lines in
// region's bucket.
func (s *System) scanBuckets(region addr.RegionAddr) []int {
	s.scan.buckets, s.scan.readBuckets = s.crhs.Holders(region, s.scan.buckets[:0]), true
	return s.scan.buckets
}

// checkSnoopScan asserts (tests only) what the scans of a broadcast or
// region probe by node exclude rely on. First, each bank's holder list
// equals a probe of every node's own cache, RCA or cached-region hash,
// else "snoop-scan". Then the premise of the remote-scan filters at every
// other node: a node the filter skipped, because its RCA has no entry for
// the region, an entry counting no lines, or an empty hash bucket, caches
// no line of the region, else "snoop-filter"; and an entry counting lines
// gives the response a scan of its cache gives, else "region-counts".
func (s *System) checkSnoopScan(exclude int, line addr.LineAddr, region addr.RegionAddr, cycle event.Cycle) {
	sc := &s.scan
	var lines []cache.Holder
	var regions []core.Holder
	var buckets []int
	for _, o := range s.nodes {
		if st := o.l2.Lookup(line); st.Valid() {
			lines = append(lines, cache.Holder{Index: o.id, State: st})
		}
		if o.rca != nil {
			if e := o.rca.Probe(region); e.State.Valid() {
				regions = append(regions, core.Holder{Index: o.id, Entry: e})
			}
		}
		if o.crh != nil && o.crh.Present(region) {
			buckets = append(buckets, o.id)
		}
	}
	scanMismatch := func(bank string, scanned, probed any) {
		coherence.Violate(coherence.InvariantError{
			Check: "snoop-scan", Cycle: uint64(cycle), Line: uint64(line), Region: uint64(region),
			Detail: fmt.Sprintf("the %s scan found %v, the nodes' own probes %v", bank, scanned, probed),
		})
	}
	if sc.readLines && !slices.Equal(sc.lines, lines) {
		scanMismatch("L2", sc.lines, lines)
	}
	if sc.readRegions && !slices.Equal(sc.regions, regions) {
		scanMismatch("RCA", sc.regions, regions)
	}
	if sc.readBuckets && !slices.Equal(sc.buckets, buckets) {
		scanMismatch("cached-region hash", sc.buckets, buckets)
	}
	for _, o := range s.nodes {
		switch {
		case o.id == exclude:
		case o.rca != nil:
			if e := o.rca.Probe(region); e.LineCount > 0 {
				s.checkRegionCounts(o, e, cycle)
			} else {
				s.checkSnoopFilter(o, region, cycle)
			}
		case o.crh != nil && !o.crh.Present(region):
			s.checkSnoopFilter(o, region, cycle)
		}
	}
}

// checkNSRTHolder asserts (tests only) that the NSRT-holder record for
// region names exactly the nodes whose own table holds an entry for it:
// none, or one, else "snoop-scan".
func (s *System) checkNSRTHolder(region addr.RegionAddr, cycle event.Cycle) {
	holder, recorded := s.nsrts.Holder(region)
	for _, o := range s.nodes {
		if has := o.nsrt.Has(region); has != (recorded && holder == o.id) {
			coherence.Violate(coherence.InvariantError{
				Check: "snoop-scan", Cycle: uint64(cycle), Region: uint64(region),
				Detail: fmt.Sprintf("p%d's NSRT holds the region: %v; the holder record names p%d: %v",
					o.id, has, holder, recorded),
			})
		}
	}
}
