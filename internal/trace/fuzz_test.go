package trace

import (
	"bytes"
	"context"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

// FuzzRead throws arbitrary bytes at the compiled-trace reader. Read must
// either return an error or a trace that round-trips through Write and
// Read unchanged and replays only valid addresses. Random mutations
// rarely get past the trailing digest, so the seeds carry the
// interesting inputs: a real compiled trace and every hostile header.
func FuzzRead(f *testing.F) {
	tr, err := Compile(context.Background(), "tpc-b", workload.Params{Processors: 2, OpsPerProc: 200, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traceBytes(f, tr))
	for _, c := range hostileHeaders(f) {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := Read(bytes.NewReader(traceBytes(t, tr)))
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if again.ContentHash() != tr.ContentHash() {
			t.Fatal("round trip changed the content hash")
		}
		var buf [256]workload.Op
		for p := range tr.Procs {
			c := tr.Procs[p].Cursor()
			for n := c.Fill(buf[:]); n > 0; n = c.Fill(buf[:]) {
				for _, op := range buf[:n] {
					if uint64(op.Addr) > addr.PhysAddrMask {
						t.Fatalf("p%d replays out-of-range address %v", p, op.Addr)
					}
				}
			}
		}
	})
}
