package sim

import (
	"cgct/internal/addr"
	"cgct/internal/event"
)

// dmaAgent models coherent I/O: disk and network devices writing
// DMA-buffer-sized chunks (Table 3: 512 bytes) into memory. A DMA write
// must be observed by every processor — cached copies of the written lines
// are stale afterwards — so the fabric propagates it system-wide (a
// broadcast on the bus, a home transaction with precise invalidations on
// the directory); the device has no Region Coherence Array, which is why
// the paper's direct path never applies to it. Each write also downgrades
// or self-invalidates the processors' region entries covering the buffer,
// eroding region exclusivity over I/O-heavy data.
//
// The agent walks the workload's DMA target segments round-robin,
// deterministically, issuing one buffer write per interval.
type dmaAgent struct {
	sys      *System
	targets  []addr.Segment
	bufBytes uint64
	interval event.Cycle
	segIdx   int
	offset   uint64
}

// newDMAAgent builds the agent; returns nil when DMA is disabled or the
// workload has no I/O targets.
func newDMAAgent(s *System, targets []addr.Segment, interval uint64) *dmaAgent {
	if interval == 0 || len(targets) == 0 {
		return nil
	}
	buf := s.cfg.DMABufferBytes
	if buf < s.cfg.L2.LineBytes {
		buf = s.cfg.L2.LineBytes
	}
	return &dmaAgent{
		sys:      s,
		targets:  targets,
		bufBytes: buf,
		interval: event.Cycle(interval),
	}
}

// start schedules the first write.
func (d *dmaAgent) start() {
	d.sys.queue.Schedule(d.interval, d, 0, 0, 0)
}

// tick performs one DMA buffer write and reschedules itself while any
// processor is still running.
func (d *dmaAgent) tick(now event.Cycle) {
	if d.sys.done >= len(d.sys.nodes) {
		return // workload finished; stop injecting
	}
	d.writeBuffer(now)
	d.sys.queue.ScheduleAfter(d.interval, d, 0, 0, 0)
}

// writeBuffer picks the next buffer target and hands the coherent write
// to the fabric (broadcast on the bus, home transaction on the directory).
// A write stops at the segment's end, so a segment whose size is not a
// multiple of the buffer gets a short last write and a zero-size segment
// gets none: the device never writes past its segment, nor past the top
// of the address space a segment may end at.
func (d *dmaAgent) writeBuffer(now event.Cycle) {
	seg := d.targets[d.segIdx]
	off := d.offset
	d.offset += d.bufBytes
	if d.offset >= seg.Size {
		d.offset = 0
		d.segIdx = (d.segIdx + 1) % len(d.targets)
	}
	if off >= seg.Size {
		return
	}
	d.sys.fabric.dmaWrite(seg.At(off), min(d.bufBytes, seg.Size-off), now)
}

// dmaLines returns the lines a DMA write of n > 0 bytes at base covers.
func (s *System) dmaLines(base addr.Addr, n uint64) (first addr.LineAddr, lines int) {
	first = s.geom.Line(base)
	last := s.geom.Line(base + addr.Addr(n-1))
	return first, int((uint64(last)-uint64(first))/s.cfg.L2.LineBytes) + 1
}
