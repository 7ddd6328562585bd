package recycle

import (
	"sync"
	"testing"
)

// TestGetAfterPutIsZeroed: a slice handed back dirty comes out of Get
// zeroed and at the requested length.
func TestGetAfterPutIsZeroed(t *testing.T) {
	var p Pool[uint64]
	for round := 0; round < 4; round++ {
		s := p.Get(1000)
		if len(s) != 1000 {
			t.Fatalf("round %d: len %d, want 1000", round, len(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("round %d: s[%d] = %d, want 0", round, i, v)
			}
			s[i] = ^uint64(0)
		}
		p.Put(s)
	}
}

// TestLengthsDoNotMix: Get(n) never returns a slice put back at another
// length, whatever was put back last.
func TestLengthsDoNotMix(t *testing.T) {
	var p Pool[int32]
	for _, n := range []int{16, 32, 16, 64, 32, 1} {
		p.Put(make([]int32, n))
	}
	for _, n := range []int{64, 1, 32, 16, 8, 16, 32} {
		if s := p.Get(n); len(s) != n {
			t.Fatalf("Get(%d) returned length %d", n, len(s))
		}
	}
}

// TestGetSkipsPlaceholders: each Put also hands the pool a placeholder,
// and Get never returns one — every Get, of slices put back and beyond,
// is a zeroed slice of the requested length.
func TestGetSkipsPlaceholders(t *testing.T) {
	var p Pool[uint64]
	for i := 0; i < 3; i++ {
		s := make([]uint64, 8)
		s[0] = 1
		p.Put(s)
	}
	for i := 0; i < 5; i++ {
		if s := p.Get(8); len(s) != 8 || s[0] != 0 {
			t.Fatalf("Get %d returned %v, want 8 zeros", i, s)
		}
	}
}

// TestConcurrentGetPut: many goroutines recycle slices of a few lengths at
// once; each sees only zeroed slices of the length it asked for. Run it
// with -race.
func TestConcurrentGetPut(t *testing.T) {
	var p Pool[byte]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 64 << ((g + i) % 3)
				s := p.Get(n)
				if len(s) != n {
					t.Errorf("Get(%d) returned length %d", n, len(s))
					return
				}
				for j := range s {
					if s[j] != 0 {
						t.Errorf("Get(%d) returned a dirty slice", n)
						return
					}
					s[j] = byte(g + 1)
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
