package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cgct/internal/faultinject"
)

// keyOf derives a valid store key from arbitrary test content.
func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func openTest(t *testing.T, o Options) *Store {
	t.Helper()
	if o.Dir == "" {
		o.Dir = t.TempDir()
	}
	s, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTest(t, Options{})
	key := keyOf("round-trip")
	payload := []byte(`{"cycles":123456}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Read-your-writes: servable before the background writer lands it.
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get (dirty): %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	s.Flush()
	if st := s.Stats(); st.Writes != 1 || st.Pending != 0 {
		t.Fatalf("after flush: %+v, want 1 write, 0 pending", st)
	}
	// Durable read through the envelope path.
	got, err = s.Get(key)
	if err != nil {
		t.Fatalf("Get (durable): %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("durable Get = %q, want %q", got, payload)
	}
	if !s.Has(key) {
		t.Fatal("Has = false for stored key")
	}
	if s.Has(keyOf("absent")) {
		t.Fatal("Has = true for absent key")
	}
	if _, err := s.Get(keyOf("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
}

// TestStoreSurvivesReopen is the warm-start property: a new Store over
// the same directory serves entries written by a previous one.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	key := keyOf("reopen")
	payload := bytes.Repeat([]byte("warm"), 1000)
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put(keyOf("late"), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	s2 := openTest(t, Options{Dir: dir})
	got, err := s2.Get(key)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload changed across reopen")
	}
}

// TestStoreQuarantinesCorruption flips bytes in a durable entry at
// several offsets (header, payload, digest) and checks each read reports
// ErrCorrupt, moves the file aside, and leaves the store serving again
// after a re-Put.
func TestStoreQuarantinesCorruption(t *testing.T) {
	for _, flip := range []struct {
		name string
		at   func(size int64) int64
	}{
		{"magic", func(int64) int64 { return 0 }},
		{"key", func(int64) int64 { return 12 }},
		{"payload", func(size int64) int64 { return size / 2 }},
		{"digest", func(size int64) int64 { return size - 1 }},
	} {
		t.Run(flip.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, Options{Dir: dir})
			key := keyOf("corrupt-" + flip.name)
			payload := bytes.Repeat([]byte{0xAB}, 4096)
			if err := s.Put(key, payload); err != nil {
				t.Fatalf("Put: %v", err)
			}
			s.Flush()

			path := filepath.Join(dir, key[:2], key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading entry file: %v", err)
			}
			raw[flip.at(int64(len(raw)))] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatalf("writing corrupted entry: %v", err)
			}

			if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(corrupt) = %v, want ErrCorrupt", err)
			}
			if st := s.Stats(); st.Corruptions != 1 {
				t.Fatalf("corruptions = %d, want 1", st.Corruptions)
			}
			// The bad file is gone from the serving path...
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry still at %s", path)
			}
			// ...preserved in quarantine...
			q, err := filepath.Glob(filepath.Join(dir, "quarantine", key+".*"))
			if err != nil || len(q) != 1 {
				t.Fatalf("quarantined copies = %v (err %v), want exactly 1", q, err)
			}
			// ...and a later Put re-establishes the entry.
			if err := s.Put(key, payload); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
			s.Flush()
			if got, err := s.Get(key); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get after re-Put = %v", err)
			}
		})
	}
}

// TestStoreRejectsTruncation simulates a crash mid-ingest by truncating
// a durable entry: reads must fail (quarantined), never return a short
// payload.
func TestStoreRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	key := keyOf("truncate")
	if err := s.Put(key, bytes.Repeat([]byte("z"), 8192)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Flush()
	path := filepath.Join(dir, key[:2], key)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(truncated) = %v, want ErrCorrupt", err)
	}
}

// TestStoreAtomicWriteLeavesNoTemp checks the write path cleans up its
// temp files: after a flush the shard holds exactly the final entries.
func TestStoreAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	for i := 0; i < 20; i++ {
		if err := s.Put(keyOf(fmt.Sprintf("entry-%d", i)), []byte("v")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	s.Flush()
	tmp, err := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// TestStoreInjectedWriteFaults arms store.write: writes fail and are
// counted, the store keeps serving (from the dirty map while pending,
// and fresh Puts after the plan disarms), and Close still terminates.
func TestStoreInjectedWriteFaults(t *testing.T) {
	plan := faultinject.NewPlan(7)
	plan.Arm(faultinject.PointStoreWrite, faultinject.Spec{Mode: faultinject.ModeError, Probability: 1})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	key := keyOf("doomed")
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Flush()
	st := s.Stats()
	if st.WriteErrors == 0 || st.Writes != 0 {
		t.Fatalf("stats = %+v, want only write errors under 100%% store.write faults", st)
	}
	// Entry was lost (warm-start only, never correctness): not on disk.
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(lost) = %v, want ErrNotFound", err)
	}

	faultinject.Disable()
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put after disarm: %v", err)
	}
	s.Flush()
	if got, err := s.Get(key); err != nil || string(got) != "payload" {
		t.Fatalf("Get after disarm = %q, %v", got, err)
	}
}

// TestStoreInjectedReadFaults arms store.read: reads fail without
// quarantining the (healthy) entry, and recover once disarmed.
func TestStoreInjectedReadFaults(t *testing.T) {
	s := openTest(t, Options{})
	key := keyOf("read-fault")
	if err := s.Put(key, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	plan := faultinject.NewPlan(7)
	plan.Arm(faultinject.PointStoreRead, faultinject.Spec{Mode: faultinject.ModeError, Probability: 1})
	faultinject.Enable(plan)
	if _, err := s.Get(key); err == nil {
		faultinject.Disable()
		t.Fatal("Get under 100% store.read faults succeeded")
	}
	faultinject.Disable()
	if got, err := s.Get(key); err != nil || string(got) != "ok" {
		t.Fatalf("Get after disarm = %q, %v (entry must not be quarantined by injected read faults)", got, err)
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Fatalf("injected read fault counted as corruption: %+v", st)
	}
	if st := s.Stats(); st.ReadErrors != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v; an injected read fault must count as read_errors, not misses", st)
	}
}

// TestStoreConcurrentPutGet hammers the store from many goroutines under
// -race: overlapping Puts and Gets for a small key set must stay
// consistent (a Get sees some complete payload for its key, never a torn
// one).
func TestStoreConcurrentPutGet(t *testing.T) {
	s := openTest(t, Options{queueCapacity: 4}) // tiny queue forces the sync-write path too
	const keys = 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyOf(fmt.Sprintf("shared-%d", i%keys))
				payload := bytes.Repeat([]byte{byte(i)}, 512)
				if err := s.Put(k, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, err := s.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if len(got) != 512 {
					t.Errorf("torn read: %d bytes", len(got))
					return
				}
				for _, b := range got[1:] {
					if b != got[0] {
						t.Errorf("torn read: mixed bytes")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Flush()
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after flush", st.Pending)
	}
}

// TestStoreSameKeyWriteOrdering pins the write-ordering bugfix: with a
// tiny queue, same-key Puts run through both the background writer and
// the queue-full synchronous path concurrently, and before the per-key
// generation ordering an older payload's rename could land after a newer
// one — stale bytes durable while the dirty map is clear. After a flush,
// the durable entry must be the last Put, always. Run with -race.
func TestStoreSameKeyWriteOrdering(t *testing.T) {
	s := openTest(t, Options{queueCapacity: 1})
	key := keyOf("ordered")
	filler := keyOf("ordering-filler")
	const rounds = 400
	var last []byte
	for i := 0; i < rounds; i++ {
		// The filler keeps the one-slot queue occupied so the keyed Put
		// frequently takes the synchronous path while the writer drains an
		// older generation of the same key.
		if err := s.Put(filler, []byte("fill")); err != nil {
			t.Fatalf("Put(filler): %v", err)
		}
		last = []byte(fmt.Sprintf("generation-%04d", i))
		if err := s.Put(key, last); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s.Flush()
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after Flush", st.Pending)
	}
	// Dirty map is clear, so this is the durable envelope from disk.
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, last) {
		t.Fatalf("durable entry = %q, want the last written %q (stale write won the rename race)", got, last)
	}
}

// TestStoreFlushUnderSustainedPuts: Flush is bounded by a drain
// generation, so a steady stream of concurrent Puts must not starve it
// (the old condition waited for len(dirty)==0, which never holds under
// sustained writes).
func TestStoreFlushUnderSustainedPuts(t *testing.T) {
	s := openTest(t, Options{queueCapacity: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Put(keyOf(fmt.Sprintf("flood-%d", i)), []byte("flood"))
		}
	}()
	// Give the flood a head start so Flush really runs against live Puts.
	time.Sleep(10 * time.Millisecond)
	flushed := make(chan struct{})
	go func() {
		s.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(30 * time.Second):
		t.Fatal("Flush starved by sustained concurrent Puts")
	}
	close(stop)
	wg.Wait()
}

// TestStoreFlushReleasesWriteState: once Flush returns, a flushed key no
// longer reads as being written, so the per-key write state stays bounded
// by persists in flight rather than by keys ever written.
func TestStoreFlushReleasesWriteState(t *testing.T) {
	s := openTest(t, Options{})
	key := keyOf("flush-release")
	for round := 0; round < 2000; round++ {
		if err := s.Put(key, []byte(fmt.Sprintf(`{"round":%d}`, round))); err != nil {
			t.Fatalf("round %d: Put: %v", round, err)
		}
		s.Flush()
		s.mu.Lock()
		_, busy := s.writing[key]
		s.mu.Unlock()
		if busy {
			t.Fatalf("round %d: key still being written after Flush returned", round)
		}
	}
}

// TestStoreGetAllocation caps what a durable Get of a 1,500-byte entry
// allocates at 8 KiB: the envelope is read into one buffer of the file's
// size and checked in memory, so a Get costs about the entry, not a
// 64 KiB read buffer. The smallest of three Gets counts.
func TestStoreGetAllocation(t *testing.T) {
	s := openTest(t, Options{})
	key := keyOf("get-allocation")
	payload := bytes.Repeat([]byte{'r'}, 1500)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := s.Get(key)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Get = %d bytes, %v; want the 1500-byte payload", len(got), err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a durable Get of a 1500-byte entry allocated %d bytes", least)
	if least > 8<<10 {
		t.Errorf("a durable Get of a 1500-byte entry allocated %d bytes, cap 8 KiB", least)
	}
}

func TestValidateKey(t *testing.T) {
	good := keyOf("valid")
	if err := ValidateKey(good); err != nil {
		t.Fatalf("ValidateKey(%s) = %v", good, err)
	}
	for _, bad := range []string{
		"",
		"short",
		good[:63],
		good + "a",
		"../../../../etc/passwd0000000000000000000000000000000000000000000",
		"ABCDEF0000000000000000000000000000000000000000000000000000000000", // uppercase
		"zzzzzz0000000000000000000000000000000000000000000000000000000000", // non-hex
		good[:32] + "/" + good[33:],                                        // path separator
	} {
		if err := ValidateKey(bad); err == nil {
			t.Errorf("ValidateKey(%q) accepted", bad)
		}
	}
}

// BenchmarkStorePut measures one durable write: Put of a 4 KiB payload
// under a fresh key, then Flush until it is on disk (fsync and rename
// included).
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte{'x'}, 4<<10)
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("put-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i], payload); err != nil {
			b.Fatal(err)
		}
		s.Flush()
	}
}

// BenchmarkStoreGet measures reading one durable 4 KiB entry back from
// disk, envelope and digest checks included.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := keyOf("get")
	if err := s.Put(key, bytes.Repeat([]byte{'x'}, 4<<10)); err != nil {
		b.Fatal(err)
	}
	s.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}
