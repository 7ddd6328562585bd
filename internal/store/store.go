// Package store is the crash-safe, disk-backed content-addressed store
// behind cgctserve's warm restarts: simulation results and compiled
// traces are spilled to it as they are produced, so a restarted peer
// serves previously simulated configs from disk instead of re-simulating
// the world.
//
// The design mirrors the compiled-trace format's durability story
// (internal/trace/file.go):
//
//   - every entry is a single file in a versioned envelope ("CGCTSTR1"
//     magic, the entry's own key echoed in the header, payload length,
//     sha256 footer over every preceding byte);
//   - writes are atomic: payloads land in a temp file in the destination
//     directory, are fsynced, then renamed over the final path — a crash
//     mid-write leaves either the old entry or none, never a torn one;
//   - corruption is quarantined on read: an entry whose envelope fails
//     structural validation or digest verification is moved aside (never
//     deleted — it is evidence) and reported as ErrCorrupt, so one bad
//     sector cannot wedge the serving path.
//
// Keys are content addresses: 64-character lowercase-hex sha256 strings
// (ValidateKey). They double as filenames, sharded by the first two hex
// characters so no directory grows unboundedly.
//
// Puts go through a bounded write-behind queue drained by one background
// writer; Get consults the dirty map first (read-your-writes), so a
// result is servable the moment Put returns. Same-key writes are ordered
// by a per-Put generation: a queue-full synchronous persist racing the
// background writer can never land an older payload's rename after a
// newer one. Flush blocks until everything accepted before it was called
// is settled (a drain generation, so sustained concurrent Puts cannot
// starve it); Close flushes and stops the writer — graceful drain calls
// it so a planned restart loses nothing.
//
// The store has no byte cap and no background verification. Corruption
// is found when an entry is read, and the caller re-derives the value
// (in a fleet, from a peer's replica) and puts it back. Every entry
// caches a deterministic result, so deleting the store's directory
// costs misses, never answers.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"cgct/internal/faultinject"
	"cgct/internal/metrics"
)

// fileMagic identifies version 1 of the store envelope.
var fileMagic = [8]byte{'C', 'G', 'C', 'T', 'S', 'T', 'R', '1'}

// KeyLen is the exact length of a store key: a lowercase-hex sha256.
const KeyLen = 64

// headerLen is an envelope's size before its payload: magic, key length,
// key, payload length.
const headerLen = 8 + 2 + KeyLen + 8

// MaxPayload bounds a single entry. Results and compiled traces are a
// few KB to a few hundred MB; anything past this is a corrupt header or
// an abuse attempt, and must not drive a giant allocation on read.
const MaxPayload = 1 << 30

// Sentinel errors.
var (
	// ErrNotFound: no entry for the key.
	ErrNotFound = errors.New("store: entry not found")
	// ErrCorrupt: the entry failed envelope validation or digest
	// verification and has been quarantined.
	ErrCorrupt = errors.New("store: entry corrupt (quarantined)")
	// ErrClosed: the store has been closed; writes are rejected.
	ErrClosed = errors.New("store: closed")
	// ErrBadKey: the key is not a 64-char lowercase-hex string.
	ErrBadKey = errors.New("store: key is not a lowercase-hex sha256")
)

// ValidateKey enforces the key grammar. Keys become filenames, so this
// is also the path-traversal guard for keys arriving off the network
// (the peer-fetch endpoint passes URL path segments here).
func ValidateKey(key string) error {
	if len(key) != KeyLen {
		return fmt.Errorf("%w: length %d, want %d", ErrBadKey, len(key), KeyLen)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w: byte %q at %d", ErrBadKey, c, i)
		}
	}
	return nil
}

// Options configures a Store.
type Options struct {
	// Dir is the store's root directory; created if absent.
	Dir string
	// Logger receives write-failure and quarantine warnings; nil discards.
	Logger *slog.Logger

	// queueCapacity bounds the write-behind queue (default 256). A Put
	// finding the queue full writes synchronously on the caller's
	// goroutine instead of blocking behind it or dropping the entry.
	// Only this package's tests set it, to drive that path.
	queueCapacity int
}

// pending is one queued write-behind entry. gen is the Put's global
// generation: per key, only the highest-generation payload may become
// durable, whatever order persists actually run in.
type pending struct {
	key     string
	payload []byte
	gen     uint64
}

// dirtyEntry is a Put accepted but not yet settled, readable by Get.
type dirtyEntry struct {
	payload []byte
	gen     uint64
}

// writeState serializes persists for one key: the background writer and
// a queue-full synchronous Put may both try to write the same key, and
// without mutual exclusion the loser's rename could land an older
// payload over a newer one.
type writeState struct {
	mu   sync.Mutex
	refs int
}

// Store is a crash-safe content-addressed blob store. Safe for
// concurrent use.
type Store struct {
	dir   string
	log   *slog.Logger
	queue chan pending

	mu      sync.Mutex
	dirty   map[string]dirtyEntry  // accepted but not yet settled: read-your-writes
	writing map[string]*writeState // keys with a persist in flight
	gen     uint64                 // last generation handed to a Put
	closed  bool
	idle    *sync.Cond // signalled whenever a dirty entry settles

	wg sync.WaitGroup

	hits        atomic.Uint64 // Get served (disk or dirty map)
	misses      atomic.Uint64 // Get found nothing
	readErrors  atomic.Uint64 // Get failed before validation (IO or injected faults)
	writes      atomic.Uint64 // entries made durable
	writeErrors atomic.Uint64 // writes that failed (entry lost, logged)
	corruptions atomic.Uint64 // entries quarantined on read
}

// Stats is a point-in-time snapshot of store behaviour.
type Stats struct {
	Hits        uint64
	Misses      uint64
	ReadErrors  uint64
	Writes      uint64
	WriteErrors uint64
	Corruptions uint64
	// Pending counts entries accepted by Put but not yet durable.
	Pending int
}

// Open creates (or reopens) the store rooted at o.Dir and starts its
// background writer. Existing entries are discovered lazily on Get — no
// startup scan, so opening a million-entry store is O(1).
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if o.queueCapacity <= 0 {
		o.queueCapacity = 256
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	s := &Store{
		dir:     o.Dir,
		log:     o.Logger,
		queue:   make(chan pending, o.queueCapacity),
		dirty:   make(map[string]dirtyEntry),
		writing: make(map[string]*writeState),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.idle = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entryPath shards entries by the first two hex characters of the key.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Put schedules payload for durable storage under key. The entry is
// readable via Get immediately (read-your-writes); durability follows
// when the background writer drains it, or synchronously on this
// goroutine when the queue is full. Put takes ownership of payload
// without copying it: the caller must not modify the slice afterwards.
// Every caller hands over a buffer it never touches again — a freshly
// serialised trace or result, or a replica body read off the wire.
func (s *Store) Put(key string, payload []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if int64(len(payload)) > MaxPayload {
		return fmt.Errorf("store: payload of %d bytes exceeds limit %d", len(payload), MaxPayload)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// The generation is assigned under mu together with the dirty-map
	// update, so dirty[key] always holds the highest generation accepted
	// for the key — the invariant the write-ordering check relies on.
	s.gen++
	p := pending{key: key, payload: payload, gen: s.gen}
	s.dirty[key] = dirtyEntry{payload: payload, gen: p.gen}
	// Enqueue under mu: Close also sets closed under mu before closing the
	// channel, so a Put that got this far can never send on a closed queue.
	select {
	case s.queue <- p:
		s.mu.Unlock()
		return nil
	default:
	}
	s.mu.Unlock()
	// Queue full: write on the caller's goroutine rather than block
	// behind the writer or silently drop durability. Close's Flush waits
	// for the dirty entry this Put registered, so it cannot miss us.
	s.persist(p)
	return nil
}

// writer is the single background goroutine draining the write-behind
// queue until Close.
func (s *Store) writer() {
	defer s.wg.Done()
	for p := range s.queue {
		s.persist(p)
	}
}

// persist makes one entry durable and clears it from the dirty map.
// A failed write (disk error or injected fault) is logged and counted;
// the entry is lost from the store but the in-memory caller already has
// the value — persistence is a warm-start optimisation, never a
// correctness dependency.
//
// Ordering: same-key persists are serialized by a per-key writeState
// mutex, and a persist only proceeds while dirty[key] still holds its
// generation. The background writer and a queue-full synchronous Put can
// therefore race freely — a superseded payload is skipped, never renamed
// over a newer one (the newer generation's own persist, still in the
// queue or on a caller's goroutine, does the write).
func (s *Store) persist(p pending) {
	ws := s.acquireWrite(p.key)
	ws.mu.Lock()
	s.mu.Lock()
	cur, ok := s.dirty[p.key]
	s.mu.Unlock()
	if !ok || cur.gen != p.gen {
		// Superseded: a newer Put owns the dirty slot (and will persist
		// itself), or this generation already settled.
		ws.mu.Unlock()
		s.releaseWrite(p.key, ws)
		return
	}
	err := faultinject.Fire(faultinject.PointStoreWrite)
	if err == nil {
		err = s.writeEntry(p.key, p.payload)
	}
	if err != nil {
		s.writeErrors.Add(1)
		s.log.Warn("store: write failed", "key", shortKey(p.key), "error", err.Error())
	} else {
		s.writes.Add(1)
	}
	s.mu.Lock()
	if cur, ok := s.dirty[p.key]; ok && cur.gen == p.gen {
		delete(s.dirty, p.key)
	}
	// Drop the write reference in the same section that settles the
	// entry, so a Flush that returns leaves no write state behind for
	// the keys it waited on. The rename is done; a persist that takes a
	// fresh writeState for the key from here on has nothing to race.
	s.releaseWriteLocked(p.key, ws)
	// Every settle wakes Flush: it waits on a drain generation, not on
	// the map emptying, so sustained Puts cannot starve it.
	s.idle.Broadcast()
	s.mu.Unlock()
	ws.mu.Unlock()
}

// acquireWrite returns the key's refcounted persist lock, creating it on
// first use.
func (s *Store) acquireWrite(key string) *writeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.writing[key]
	if ws == nil {
		ws = &writeState{}
		s.writing[key] = ws
	}
	ws.refs++
	return ws
}

// releaseWrite drops one reference, removing the lock when idle so the
// map stays bounded by in-flight writes, not by keys ever written.
func (s *Store) releaseWrite(key string, ws *writeState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseWriteLocked(key, ws)
}

// releaseWriteLocked is releaseWrite for a caller holding s.mu.
func (s *Store) releaseWriteLocked(key string, ws *writeState) {
	if ws.refs--; ws.refs == 0 {
		delete(s.writing, key)
	}
}

// writeEntry writes one envelope atomically: temp file in the shard
// directory, fsync, rename. The header, the payload and the digest go
// out as three writes straight from their own memory.
func (s *Store) writeEntry(key string, payload []byte) error {
	shard := filepath.Join(s.dir, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(shard, ".tmp-"+key[:8]+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()

	var hdr [headerLen]byte
	copy(hdr[:], fileMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:], KeyLen)
	copy(hdr[10:], key)
	binary.LittleEndian.PutUint64(hdr[10+KeyLen:], uint64(len(payload)))
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(payload)
	var sum [sha256.Size]byte
	for _, b := range [][]byte{hdr[:], payload, h.Sum(sum[:0])} { // digest itself unhashed
		if _, err = f.Write(b); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, s.entryPath(key))
}

// Get returns the payload stored under key: from the dirty map when a
// Put is still in flight, else from disk with full envelope validation.
// Corrupt entries are quarantined and reported as ErrCorrupt; a missing
// entry is ErrNotFound.
func (s *Store) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if p, ok := s.dirty[key]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		cp := make([]byte, len(p.payload))
		copy(cp, p.payload)
		return cp, nil
	}
	s.mu.Unlock()

	if err := faultinject.Fire(faultinject.PointStoreRead); err != nil {
		// A read fault is not a miss: the entry may well exist, we just
		// could not look. Conflating the two hides real IO trouble inside
		// the (much larger) cold-key miss count.
		s.readErrors.Add(1)
		return nil, fmt.Errorf("store: read: %w", err)
	}
	f, err := os.Open(s.entryPath(key))
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if err != nil {
		s.readErrors.Add(1)
		return nil, err
	}
	payload, rerr := readEntry(f, key)
	f.Close()
	if rerr != nil {
		s.corruptions.Add(1)
		s.quarantine(key, rerr)
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, rerr)
	}
	s.hits.Add(1)
	return payload, nil
}

// Has reports whether key is resident (dirty or durable) without reading
// or validating the payload.
func (s *Store) Has(key string) bool {
	if ValidateKey(key) != nil {
		return false
	}
	s.mu.Lock()
	if _, ok := s.dirty[key]; ok {
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	_, err := os.Stat(s.entryPath(key))
	return err == nil
}

// readEntry validates one envelope and returns its payload. Every header
// field is untrusted: the file's size is bounded by MaxPayload before the
// one buffer the whole envelope is read into is allocated, the payload
// length must match that size, the embedded key must match the requested
// one (a renamed or cross-linked file must not serve under the wrong
// address), and the trailing digest catches whatever bit-rot the
// structural checks miss.
func readEntry(f *os.File, key string) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < headerLen+sha256.Size {
		return nil, fmt.Errorf("truncated envelope: %d bytes", size)
	}
	if size > headerLen+MaxPayload+sha256.Size {
		return nil, fmt.Errorf("file size %d exceeds the payload limit", size)
	}
	raw := make([]byte, size)
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, fmt.Errorf("truncated read: %w", err)
	}
	if [8]byte(raw[:8]) != fileMagic {
		return nil, fmt.Errorf("bad magic %q", raw[:8])
	}
	if keyLen := binary.LittleEndian.Uint16(raw[8:]); keyLen != KeyLen {
		return nil, fmt.Errorf("key length %d, want %d", keyLen, KeyLen)
	}
	if gotKey := raw[10 : 10+KeyLen]; string(gotKey) != key {
		return nil, fmt.Errorf("entry holds key %s, want %s", shortKey(string(gotKey)), shortKey(key))
	}
	end := size - sha256.Size // the payload ends where the digest starts
	if plen := binary.LittleEndian.Uint64(raw[headerLen-8:]); plen != uint64(end-headerLen) {
		return nil, fmt.Errorf("payload length %d inconsistent with file size %d", plen, size)
	}
	// The digest covers every byte before it, itself excluded.
	if sha256.Sum256(raw[:end]) != [sha256.Size]byte(raw[end:]) {
		return nil, errors.New("digest mismatch")
	}
	return raw[headerLen:end:end], nil
}

// quarantine moves a corrupt entry aside so later reads re-derive the
// value instead of tripping over the same bad file, while preserving the
// bytes for post-mortem.
func (s *Store) quarantine(key string, cause error) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.log.Warn("store: quarantine dir", "error", err.Error())
		return
	}
	dst, err := os.CreateTemp(qdir, key+".*")
	if err != nil {
		s.log.Warn("store: quarantine", "key", shortKey(key), "error", err.Error())
		return
	}
	name := dst.Name()
	dst.Close()
	if err := os.Rename(s.entryPath(key), name); err != nil {
		os.Remove(name)
		s.log.Warn("store: quarantine rename", "key", shortKey(key), "error", err.Error())
		return
	}
	s.log.Warn("store: entry quarantined", "key", shortKey(key), "to", name, "cause", cause.Error())
}

// Flush blocks until every entry accepted before the call is either
// durable, counted as a write error, or superseded by a newer same-key
// Put. The wait is bounded by a drain generation snapshotted on entry —
// Puts arriving during the flush get higher generations and are not
// waited for, so a sustained writer cannot starve a flusher.
func (s *Store) Flush() {
	s.mu.Lock()
	target := s.gen
	for s.dirtyAtOrBelowLocked(target) {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// dirtyAtOrBelowLocked reports whether any unsettled entry predates the
// flush target. Caller holds s.mu.
func (s *Store) dirtyAtOrBelowLocked(target uint64) bool {
	for _, e := range s.dirty {
		if e.gen <= target {
			return true
		}
	}
	return false
}

// Close flushes the write-behind queue and stops the writer. Later Puts return ErrClosed; Get keeps working (the store
// stays readable so an already-running drain can still serve followers).
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.Flush()
	close(s.queue)
	s.wg.Wait()
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	pending := len(s.dirty)
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		ReadErrors:  s.readErrors.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Corruptions: s.corruptions.Load(),
		Pending:     pending,
	}
}

// RegisterMetrics registers the store's behaviour into reg under the
// given prefix (e.g. "cgct_store"), read live at scrape time.
func (s *Store) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"_hits_total", "persistent-store reads served",
		func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc(prefix+"_misses_total", "persistent-store reads that found nothing",
		func() float64 { return float64(s.misses.Load()) })
	reg.CounterFunc(prefix+"_read_errors_total", "reads failed before validation (IO or injected faults)",
		func() float64 { return float64(s.readErrors.Load()) })
	reg.CounterFunc(prefix+"_writes_total", "entries made durable",
		func() float64 { return float64(s.writes.Load()) })
	reg.CounterFunc(prefix+"_write_errors_total", "entries lost to failed writes",
		func() float64 { return float64(s.writeErrors.Load()) })
	reg.CounterFunc(prefix+"_corruptions_total", "entries quarantined on read",
		func() float64 { return float64(s.corruptions.Load()) })
	reg.GaugeFunc(prefix+"_pending", "entries accepted but not yet durable",
		func() float64 { return float64(s.Stats().Pending) })
}

// shortKey abbreviates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
