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
// Capacity and hygiene are optional background layers: Options.MaxBytes
// enables LRU eviction over a lazily built size index (no startup scan —
// the index is first built when a capacity check or scrub needs it), and
// Options.ScrubInterval enables a trickle scrubber that re-validates one
// entry's envelope per tick, quarantines failures, and — when a refetch
// callback is installed — restores the entry from a replica peer.
package store

import (
	"bufio"
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
	"time"

	"cgct/internal/faultinject"
	"cgct/internal/metrics"
)

// fileMagic identifies version 1 of the store envelope.
var fileMagic = [8]byte{'C', 'G', 'C', 'T', 'S', 'T', 'R', '1'}

// KeyLen is the exact length of a store key: a lowercase-hex sha256.
const KeyLen = 64

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
	// QueueCapacity bounds the write-behind queue (default 256). A Put
	// finding the queue full writes synchronously on the caller's
	// goroutine instead of blocking behind it or dropping the entry.
	QueueCapacity int
	// MaxBytes caps the durable footprint (0 = unlimited). When a write
	// pushes the store past the cap, least-recently-used entries are
	// evicted until it fits; the size index behind the cap is built
	// lazily on first need, so an uncapped store still opens in O(1).
	MaxBytes int64
	// ScrubInterval enables the background scrubber (0 = disabled): one
	// entry per tick is re-read and its envelope re-verified, so silent
	// bit-rot is found at a trickle rate instead of at serve time.
	ScrubInterval time.Duration
	// Logger receives write-failure and quarantine warnings; nil discards.
	Logger *slog.Logger
}

// RefetchFunc restores a quarantined entry's payload from elsewhere
// (in the cluster: a replica peer). Wired via SetRefetch.
type RefetchFunc func(key string) ([]byte, error)

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

// indexEntry is one durable entry's row in the lazily built size index.
type indexEntry struct {
	size int64
	seq  uint64 // last-access sequence; smallest = least recently used
}

// Store is a crash-safe content-addressed blob store. Safe for
// concurrent use.
type Store struct {
	dir      string
	log      *slog.Logger
	queue    chan pending
	maxBytes int64
	refetch  atomic.Pointer[RefetchFunc]

	mu      sync.Mutex
	dirty   map[string]dirtyEntry  // accepted but not yet settled: read-your-writes
	writing map[string]*writeState // keys with a persist in flight
	gen     uint64                 // last generation handed to a Put
	closed  bool
	idle    *sync.Cond // signalled whenever a dirty entry settles

	// imu guards the size index, which orders eviction and scrubbing.
	// Never held together with mu — index maintenance snapshots what it
	// needs from mu-guarded state first.
	imu        sync.Mutex
	index      map[string]*indexEntry
	indexBytes int64
	indexBuilt bool
	accessSeq  uint64
	scrubKeys  []string // scrub cursor: keys still to visit this cycle

	scrubStop chan struct{}
	wg        sync.WaitGroup

	hits         atomic.Uint64 // Get served (disk or dirty map)
	misses       atomic.Uint64 // Get found nothing
	readErrors   atomic.Uint64 // Get failed before validation (IO or injected faults)
	writes       atomic.Uint64 // entries made durable
	writeErrors  atomic.Uint64 // writes that failed (entry lost, logged)
	corruptions  atomic.Uint64 // entries quarantined (read or scrub)
	evictions    atomic.Uint64 // entries removed by the byte cap
	scrubbed     atomic.Uint64 // entries re-verified by the scrubber
	scrubRepairs atomic.Uint64 // quarantined entries restored via refetch
}

// Stats is a point-in-time snapshot of store behaviour.
type Stats struct {
	Hits        uint64
	Misses      uint64
	ReadErrors  uint64
	Writes      uint64
	WriteErrors uint64
	Corruptions uint64
	Evictions   uint64
	Scrubbed    uint64
	// ScrubRepairs counts quarantined entries restored from a replica.
	ScrubRepairs uint64
	// Bytes is the indexed durable footprint (0 until the size index has
	// been built — it is lazy).
	Bytes int64
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
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 256
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	s := &Store{
		dir:      o.Dir,
		log:      o.Logger,
		queue:    make(chan pending, o.QueueCapacity),
		maxBytes: o.MaxBytes,
		dirty:    make(map[string]dirtyEntry),
		writing:  make(map[string]*writeState),
		index:    make(map[string]*indexEntry),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.idle = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.writer()
	if o.ScrubInterval > 0 {
		s.scrubStop = make(chan struct{})
		s.wg.Add(1)
		go s.scrubber(o.ScrubInterval)
	}
	return s, nil
}

// SetRefetch installs the callback the scrubber uses to restore a
// quarantined entry from a replica peer. nil (the default) means
// quarantined entries are simply lost from the store.
func (s *Store) SetRefetch(fn RefetchFunc) {
	if fn == nil {
		s.refetch.Store(nil)
		return
	}
	s.refetch.Store(&fn)
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
// goroutine when the queue is full. The payload is copied, so callers
// may reuse their buffer.
func (s *Store) Put(key string, payload []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if int64(len(payload)) > MaxPayload {
		return fmt.Errorf("store: payload of %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// The generation is assigned under mu together with the dirty-map
	// update, so dirty[key] always holds the highest generation accepted
	// for the key — the invariant the write-ordering check relies on.
	s.gen++
	p := pending{key: key, payload: cp, gen: s.gen}
	s.dirty[key] = dirtyEntry{payload: cp, gen: p.gen}
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
		// Index and evict before settling the dirty entry, so a Flush that
		// returns has also applied the byte cap. The key is still busy
		// here, so it can never be its own victim.
		s.noteDurable(p.key, entrySize(p.key, len(p.payload)))
	}
	s.mu.Lock()
	if cur, ok := s.dirty[p.key]; ok && cur.gen == p.gen {
		delete(s.dirty, p.key)
	}
	// Drop the write reference in the same section that settles the
	// entry, so a Flush that returns never leaves the key reading as
	// busy to a scrub. The rename is done; a persist that takes a fresh
	// writeState for the key from here on has nothing to race.
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

// entrySize is the on-disk envelope size for a payload: magic, key
// length, key, payload length, payload, sha256 footer.
func entrySize(key string, payloadLen int) int64 {
	return int64(8 + 2 + len(key) + 8 + payloadLen + sha256.Size)
}

// writeEntry writes one envelope atomically: temp file in the shard
// directory, fsync, rename.
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
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	h := sha256.New()
	mw := io.MultiWriter(bw, h)

	var scratch [8]byte
	if _, err := mw.Write(fileMagic[:]); err != nil {
		cleanup()
		return err
	}
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(key)))
	if _, err := mw.Write(scratch[:2]); err != nil {
		cleanup()
		return err
	}
	if _, err := io.WriteString(mw, key); err != nil {
		cleanup()
		return err
	}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(len(payload)))
	if _, err := mw.Write(scratch[:8]); err != nil {
		cleanup()
		return err
	}
	if _, err := mw.Write(payload); err != nil {
		cleanup()
		return err
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil { // digest itself unhashed
		cleanup()
		return err
	}
	if err := bw.Flush(); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
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
	s.touch(key, entrySize(key, len(payload)))
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
// field is untrusted: the payload length is bounded by MaxPayload and by
// the file's actual size before allocation, the embedded key must match
// the requested one (a renamed or cross-linked file must not serve under
// the wrong address), and the trailing digest catches whatever bit-rot
// the structural checks miss.
func readEntry(f *os.File, key string) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	br := bufio.NewReaderSize(f, 64<<10)
	r := io.TeeReader(br, h)

	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("truncated magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("bad magic %q", magic[:])
	}
	var b2 [2]byte
	if _, err := io.ReadFull(r, b2[:]); err != nil {
		return nil, fmt.Errorf("truncated key length: %w", err)
	}
	keyLen := binary.LittleEndian.Uint16(b2[:])
	if int(keyLen) != len(key) {
		return nil, fmt.Errorf("key length %d, want %d", keyLen, len(key))
	}
	gotKey := make([]byte, keyLen)
	if _, err := io.ReadFull(r, gotKey); err != nil {
		return nil, fmt.Errorf("truncated key: %w", err)
	}
	if string(gotKey) != key {
		return nil, fmt.Errorf("entry holds key %s, want %s", shortKey(string(gotKey)), shortKey(key))
	}
	var b8 [8]byte
	if _, err := io.ReadFull(r, b8[:]); err != nil {
		return nil, fmt.Errorf("truncated payload length: %w", err)
	}
	plen := binary.LittleEndian.Uint64(b8[:])
	header := int64(8 + 2 + int(keyLen) + 8)
	if plen > MaxPayload || int64(plen) != fi.Size()-header-sha256.Size {
		return nil, fmt.Errorf("payload length %d inconsistent with file size %d", plen, fi.Size())
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("truncated payload: %w", err)
	}
	want := h.Sum(nil)
	var got [sha256.Size]byte
	// br, not r: the digest trails the hashed stream, so it must not feed
	// the running hash.
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("truncated digest: %w", err)
	}
	if [sha256.Size]byte(want) != got {
		return nil, errors.New("digest mismatch")
	}
	return payload, nil
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
	s.indexForget(key)
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

// Close flushes the write-behind queue and stops the writer and
// scrubber. Later Puts return ErrClosed; Get keeps working (the store
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
	if s.scrubStop != nil {
		close(s.scrubStop)
	}
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
	s.imu.Lock()
	bytes := s.indexBytes
	s.imu.Unlock()
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		ReadErrors:   s.readErrors.Load(),
		Writes:       s.writes.Load(),
		WriteErrors:  s.writeErrors.Load(),
		Corruptions:  s.corruptions.Load(),
		Evictions:    s.evictions.Load(),
		Scrubbed:     s.scrubbed.Load(),
		ScrubRepairs: s.scrubRepairs.Load(),
		Bytes:        bytes,
		Pending:      pending,
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
	reg.CounterFunc(prefix+"_corruptions_total", "entries quarantined on read or scrub",
		func() float64 { return float64(s.corruptions.Load()) })
	reg.CounterFunc(prefix+"_evictions_total", "entries evicted by the byte cap, least recently used first",
		func() float64 { return float64(s.evictions.Load()) })
	reg.CounterFunc(prefix+"_scrubbed_total", "entries re-verified by the background scrubber",
		func() float64 { return float64(s.scrubbed.Load()) })
	reg.CounterFunc(prefix+"_scrub_repairs_total", "quarantined entries restored from a replica",
		func() float64 { return float64(s.scrubRepairs.Load()) })
	reg.GaugeFunc(prefix+"_bytes", "indexed durable footprint in bytes (0 until the lazy index builds)",
		func() float64 {
			s.imu.Lock()
			defer s.imu.Unlock()
			return float64(s.indexBytes)
		})
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
