package disptrace

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/faults"
	"vmopt/internal/runner"
)

// Key identifies a dispatch stream: everything that determines the
// event sequence. The machine model is deliberately absent — one
// trace serves every machine (see cpu.Sink).
//
// Variant is the harness variant label; labels are unique per
// configuration within an experiment grid (sweep variants encode
// their budgets in the label), so the label together with scale,
// divisor, step bound and ISA fingerprint pins the stream down.
type Key struct {
	Workload  string
	Lang      string
	Variant   string
	Technique string
	Scale     uint64
	ScaleDiv  uint64
	MaxSteps  uint64
	ISAHash   uint64
}

// ID returns the content address of the key: a sha256 over the format
// version and every field, rendered as hex. It names the cache file.
func (k Key) ID() string {
	h := sha256.Sum256(fmt.Appendf(nil, "vmdt%d|%s|%s|%s|%s|%d|%d|%d|%x",
		Version, k.Workload, k.Lang, k.Variant, k.Technique,
		k.Scale, k.ScaleDiv, k.MaxSteps, k.ISAHash))
	return hex.EncodeToString(h[:])
}

// Header returns the trace header a recording for this key should
// carry (stream totals zero; the writer fills them).
func (k Key) Header() Header {
	return Header{
		Workload: k.Workload, Lang: k.Lang,
		Variant: k.Variant, Technique: k.Technique,
		Scale: k.Scale, ScaleDiv: k.ScaleDiv,
		MaxSteps: k.MaxSteps, ISAHash: k.ISAHash,
	}
}

// keyOf is the inverse of Key.Header: the key a trace header was
// recorded under. A loaded trace matches its key when keyOf gives the
// key back (belt and braces over the content address: a stale or
// hand-renamed file is rejected instead of silently replayed).
func keyOf(h Header) Key {
	return Key{
		Workload: h.Workload, Lang: h.Lang,
		Variant: h.Variant, Technique: h.Technique,
		Scale: h.Scale, ScaleDiv: h.ScaleDiv,
		MaxSteps: h.MaxSteps, ISAHash: h.ISAHash,
	}
}

// memoryBudget bounds the resident bytes (Arena.Bytes) of the decoded
// traces a Cache keeps in memory. Stored as successor-run tokens, all
// 126 paper-grid traces at scalediv 10 weigh 11.8 MB together
// (TestPaperGridFitsMemoryBudget), so 16 MiB holds the whole grid: a
// pass over it decodes each trace once, and the tier holds only what
// the pass has loaded instead of staying full.
const memoryBudget = 16 << 20

// Cache is a content-addressed on-disk trace store: traces live under
// Dir as <key-id>.vmdt. Concurrent recordings of the same key are
// deduplicated in-process (runner.Flight); distinct processes sharing
// a directory stay safe through atomic writes, at worst recording the
// same trace twice.
//
// Decoded traces stay in memory in one least-recently-used list under
// a byte budget (memoryBudget), so a load runs down the ladder memory
// → disk → peer (Fill) → simulate. Build a Cache with NewCache.
type Cache struct {
	// Dir is the cache directory (created on first store).
	Dir string

	// Faults optionally injects I/O failures at the cache.read and
	// cache.write sites (delays, errors, payload corruption). nil
	// injects nothing; the self-healing paths below exist so every
	// injected fault is absorbed without failing a request.
	Faults *faults.Injector

	// Fill, when set, is consulted on a clean local miss before the
	// trace is recorded by simulation: it returns the encoded trace
	// bytes from elsewhere (in a cluster, the owning peer), nil bytes
	// for a clean miss, or an error. Filled bytes are verified against
	// the key before use and stored locally, so a cold or re-hashed
	// instance warms from the fleet instead of redoing work. Fill runs
	// inside the per-key flight, so a herd on one key asks at most
	// once. FillID is the same hook for by-ID loads (the diff path);
	// its result is verified against the content address. Both must be
	// set before the cache serves traffic.
	Fill   func(k Key) ([]byte, error)
	FillID func(id string) ([]byte, error)

	// mem holds decoded traces by ID, each weighed by its
	// Arena.Bytes and each verified to hash back to its ID. Every
	// clean disk decode, peer fill and recording goes in, and later
	// loads are served from it without a read or a decode; quarantine
	// drops an entry together with its file.
	mem *runner.LRU[string, *Trace]

	flight runner.Flight[string, cacheOutcome]

	// metas memoizes per-file index metadata for List (id ->
	// cachedMeta), revalidated by size+mtime so a re-recorded file is
	// re-read. Trace files are content-addressed and essentially
	// immutable, so a listing after the first costs ReadDir+stat
	// again, not a header parse per file. Entries for deleted files
	// are dropped during List.
	metas sync.Map

	loads, records, joined, memHits     atomic.Uint64
	quarantined, readErrors, saveErrors atomic.Uint64
	peerFills, peerFillMisses           atomic.Uint64
	peerFillErrors, peerServes          atomic.Uint64
}

// cachedMeta is one memoized ReadMeta result with its validators.
type cachedMeta struct {
	size  int64
	mtime time.Time
	meta  Meta
	ok    bool // false: the file was unreadable; don't retry every listing
}

// CacheStats counts cache activity since process start; the serving
// subsystem reports it on /v1/stats. Loads + Records is the number of
// flights that ran (loads from memory or disk vs fresh recordings);
// Joined counts GetOrRecord calls that coalesced onto an in-progress
// flight instead of touching the disk at all.
type CacheStats struct {
	Loads   uint64 `json:"loads"`
	Records uint64 `json:"records"`
	Joined  uint64 `json:"joined"`

	// Quarantined counts corrupt or mismatched files moved to the
	// quarantine sidecar dir instead of served; ReadErrors counts
	// loads that failed at the I/O layer and fell back to
	// re-simulation; SaveErrors counts recordings whose cache store
	// failed but whose trace was still served.
	Quarantined uint64 `json:"quarantined"`
	ReadErrors  uint64 `json:"read_errors"`
	SaveErrors  uint64 `json:"save_errors"`

	// PeerFills counts misses satisfied by the Fill/FillID hooks (in a
	// cluster, traces fetched from the owning peer instead of
	// re-simulated); PeerFillMisses counts hook calls that came back
	// empty and fell through to simulation; PeerFillErrors counts hook
	// failures plus filled payloads rejected by verification.
	// PeerServes counts raw trace files this instance handed to peers
	// through ReadRaw.
	PeerFills      uint64 `json:"peer_fills,omitempty"`
	PeerFillMisses uint64 `json:"peer_fill_misses,omitempty"`
	PeerFillErrors uint64 `json:"peer_fill_errors,omitempty"`
	PeerServes     uint64 `json:"peer_serves,omitempty"`

	// MemoryHits counts loads served from memory, with no disk read
	// and no decode; MemoryEvictions counts decoded traces the byte
	// budget displaced (quarantine removals are not counted);
	// MemoryBytes is the resident size of the traces held now.
	MemoryHits      uint64 `json:"memory_hits"`
	MemoryEvictions uint64 `json:"memory_evictions"`
	MemoryBytes     int64  `json:"memory_bytes"`
}

// Stats snapshots the cache's activity counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Loads:          c.loads.Load(),
		Records:        c.records.Load(),
		Joined:         c.joined.Load(),
		Quarantined:    c.quarantined.Load(),
		ReadErrors:     c.readErrors.Load(),
		SaveErrors:     c.saveErrors.Load(),
		PeerFills:      c.peerFills.Load(),
		PeerFillMisses: c.peerFillMisses.Load(),
		PeerFillErrors: c.peerFillErrors.Load(),
		PeerServes:     c.peerServes.Load(),

		MemoryHits:      c.memHits.Load(),
		MemoryEvictions: c.mem.Evictions(),
		MemoryBytes:     c.mem.Weight(),
	}
}

// Quarantined reports files quarantined since process start (the
// vmserved_cache_quarantined_total metric).
func (c *Cache) Quarantined() uint64 { return c.quarantined.Load() }

// cacheOutcome is one GetOrRecord result shared across a flight.
type cacheOutcome struct {
	t        *Trace
	recorded bool
}

// NewCache returns a cache rooted at dir.
func NewCache(dir string) *Cache {
	return &Cache{Dir: dir, mem: newMemory(memoryBudget)}
}

// newMemory returns the in-memory list of decoded traces, bounded by
// budget bytes alone: every entry weighs at least its arena's slice
// headers, so the budget also bounds the entry count.
func newMemory(budget int64) *runner.LRU[string, *Trace] {
	return runner.NewWeightedLRU[string](math.MaxInt, budget,
		func(t *Trace) int64 { return t.arena.Bytes() })
}

// memGet returns the decoded trace memory holds for id, or nil.
func (c *Cache) memGet(id string) *Trace {
	t, _ := c.mem.Get(id)
	if t != nil {
		c.memHits.Add(1)
	}
	return t
}

// remember keeps a verified trace in memory. A trace heavier than the
// whole budget is served but not kept: holding it would evict
// everything else and still break the bound.
func (c *Cache) remember(id string, t *Trace) {
	if t.arena.Bytes() <= c.mem.Budget() {
		c.mem.Add(id, t)
	}
}

// Path returns the file a key's trace is stored at.
func (c *Cache) Path(k Key) string {
	return filepath.Join(c.Dir, k.ID()+".vmdt")
}

// QuarantineDir is the sidecar directory under Dir that corrupt or
// mismatched cache files are moved into (never deleted): the bytes
// stay available for a postmortem, the cache heals by re-recording,
// and the move shows up in CacheStats.Quarantined.
const QuarantineDir = "quarantine"

// quarantine moves a bad cache file into the sidecar dir. If the move
// itself fails (cross-device, permissions) the file is removed
// instead — a poisoned entry that cannot be set aside must still not
// wedge every future run on its key.
func (c *Cache) quarantine(path string) {
	// Memory must never outlive its file: a quarantined entry's
	// decoded trace goes with it, so the healed replacement is
	// decoded from clean bytes.
	c.mem.Remove(strings.TrimSuffix(filepath.Base(path), ".vmdt"))
	qdir := filepath.Join(c.Dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			c.quarantined.Add(1)
			return
		}
	}
	if os.Remove(path) == nil {
		c.quarantined.Add(1)
	}
}

// readFile reads one cache file through the fault-injection sites:
// injected latency first, then an injected read error, then payload
// corruption of the bytes actually read.
func (c *Cache) readFile(path string) ([]byte, error) {
	c.Faults.Delay(faults.SiteCacheRead)
	if err := c.Faults.Err(faults.SiteCacheRead); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return c.Faults.Corrupt(faults.SiteCacheRead, b), nil
}

// Load returns the cached trace for a key, or (nil, nil) on a clean
// miss. A corrupt or mismatched cache file is quarantined and
// reported as a miss so the caller re-records over it; read errors
// other than absence (permissions, fd exhaustion, injected faults)
// propagate — quarantining a valid trace over a transient I/O failure
// would needlessly discard cache (GetOrRecord absorbs the error by
// re-simulating instead).
func (c *Cache) Load(k Key) (*Trace, error) { return c.loadID(k.ID()) }

// loadID is the one verified read by content address, shared by Load
// and LoadID: memory first, then the file, decoded and kept in memory
// only when its header hashes back to id. A file that fails to decode,
// or holds another key's trace (stale or renamed), is quarantined.
// Both that and an absent file return (nil, nil); other read errors
// propagate.
func (c *Cache) loadID(id string) (*Trace, error) {
	if t := c.memGet(id); t != nil {
		return t, nil
	}
	path := filepath.Join(c.Dir, id+".vmdt")
	b, err := c.readFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("disptrace: %w", err)
	}
	t, err := Decode(b)
	if err != nil || keyOf(t.Header).ID() != id {
		// Truncated, bit-flipped, stale or renamed: set it aside and
		// treat as a miss rather than wedging every run on the key or
		// serving another key's trace under this one.
		c.quarantine(path)
		return nil, nil
	}
	c.remember(id, t)
	return t, nil
}

// traceIDPattern is the shape of a content address: the hex sha256
// Key.ID produces. Only the cache knows its own file layout; callers
// (the serving API) enumerate and load by ID through List/LoadID.
var traceIDPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidID reports whether id has the shape of a cache content
// address.
func ValidID(id string) bool { return traceIDPattern.MatchString(id) }

// ErrNoTrace reports an ID absent from the cache.
var ErrNoTrace = errors.New("disptrace: no such trace in cache")

// CacheEntry is one resident trace file in the cache index: its
// content address and size plus the identifying metadata and stream
// shape read from the file's header and index (the dictionary and
// the token stream are not read). Diff tooling picks comparable pairs straight from this
// listing.
type CacheEntry struct {
	ID    string `json:"id"`
	Bytes int64  `json:"bytes"`

	Workload  string `json:"workload,omitempty"`
	Lang      string `json:"lang,omitempty"`
	Variant   string `json:"variant,omitempty"`
	Technique string `json:"technique,omitempty"`
	ScaleDiv  uint64 `json:"scalediv,omitempty"`

	// VMInstructions and DictSteps come from the trace's header and
	// index.
	VMInstructions uint64 `json:"vm_instructions,omitempty"`
	DictSteps      int    `json:"dict_steps,omitempty"`
}

// List enumerates every trace resident in the cache directory with
// its index metadata. A missing directory is an empty cache, not an
// error; files whose metadata cannot be read (corrupt, written by an
// older format version, or deleted mid-listing) are listed by id and
// size alone.
func (c *Cache) List() ([]CacheEntry, error) {
	entries, err := os.ReadDir(c.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("disptrace: %w", err)
	}
	var out []CacheEntry
	live := make(map[string]bool, len(entries))
	for _, e := range entries {
		id, isTrace := strings.CutSuffix(e.Name(), ".vmdt")
		if !isTrace || !ValidID(id) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted between ReadDir and stat
		}
		live[id] = true
		entry := CacheEntry{ID: id, Bytes: info.Size()}
		cm, hit := c.metas.Load(id)
		if !hit || cm.(cachedMeta).size != info.Size() || !cm.(cachedMeta).mtime.Equal(info.ModTime()) {
			fresh := cachedMeta{size: info.Size(), mtime: info.ModTime()}
			if m, err := ReadMeta(filepath.Join(c.Dir, e.Name())); err == nil {
				fresh.meta, fresh.ok = m, true
			}
			c.metas.Store(id, fresh)
			cm = fresh
		}
		if m := cm.(cachedMeta); m.ok {
			entry.Workload = m.meta.Header.Workload
			entry.Lang = m.meta.Header.Lang
			entry.Variant = m.meta.Header.Variant
			entry.Technique = m.meta.Header.Technique
			entry.ScaleDiv = m.meta.Header.ScaleDiv
			entry.VMInstructions = m.meta.Header.VMInstructions
			entry.DictSteps = m.meta.DictSteps
		}
		out = append(out, entry)
	}
	// Drop memoized metadata for files no longer resident, so the map
	// tracks the directory instead of its history.
	c.metas.Range(func(k, _ any) bool {
		if !live[k.(string)] {
			c.metas.Delete(k)
		}
		return true
	})
	return out, nil
}

// LoadID loads a cached trace by its content address, returning the
// trace and its on-disk size. Absent IDs return ErrNoTrace (also for
// malformed IDs, which cannot name a cache file). A file that fails to
// decode or to hash back to id is quarantined and reported as absent:
// the cache has no valid trace under that ID any more.
func (c *Cache) LoadID(id string) (*Trace, int64, error) {
	if !ValidID(id) {
		return nil, 0, ErrNoTrace
	}
	// The stat keeps deleted files reporting ErrNoTrace even when
	// memory still holds them.
	fi, err := os.Stat(filepath.Join(c.Dir, id+".vmdt"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if t, b := fill(c, id, c.FillID, id); t != nil {
				c.remember(id, t)
				return t, int64(len(b)), nil
			}
			return nil, 0, ErrNoTrace
		}
		return nil, 0, fmt.Errorf("disptrace: %w", err)
	}
	t, err := c.loadID(id)
	if err != nil {
		return nil, 0, err
	}
	if t == nil {
		return nil, 0, ErrNoTrace
	}
	return t, fi.Size(), nil
}

// MetaID reads one cached trace's metadata by its content address:
// the header and index, with the file's checksum verified, returned
// with the file's size. Neither the dictionary nor the token stream is
// parsed, and the read neither consults nor fills memory. Absent IDs
// (after a peer fill attempt) return ErrNoTrace; a file that fails its
// checksum, is of another format version or holds a header that does
// not hash back to id is quarantined and reported as absent, as
// LoadID does.
func (c *Cache) MetaID(id string) (Meta, int64, error) {
	if !ValidID(id) {
		return Meta{}, 0, ErrNoTrace
	}
	path := filepath.Join(c.Dir, id+".vmdt")
	b, err := c.readFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		_, b := fill(c, id, c.FillID, id)
		if b == nil {
			return Meta{}, 0, ErrNoTrace
		}
		m, err := DecodeMeta(b)
		return m, int64(len(b)), err
	} else if err != nil {
		return Meta{}, 0, fmt.Errorf("disptrace: %w", err)
	}
	m, err := DecodeMeta(b)
	if err == nil {
		err = checkSum(b)
	}
	if err != nil || keyOf(m.Header).ID() != id {
		c.quarantine(path)
		return Meta{}, 0, ErrNoTrace
	}
	return m, int64(len(b)), nil
}

// store writes a trace into the cache through the cache.write fault
// sites: injected latency first, then an injected write error, then
// payload corruption of the encoded bytes on their way to disk (a
// later read fails its checksum and exercises quarantine).
func (c *Cache) store(k Key, t *Trace) error {
	c.Faults.Delay(faults.SiteCacheWrite)
	if err := c.Faults.Err(faults.SiteCacheWrite); err != nil {
		return err
	}
	return atomicWrite(c.Path(k), c.Faults.Corrupt(faults.SiteCacheWrite, t.Encode()))
}

// GetOrRecord returns the trace for key, loading it from memory or
// disk or recording it with record exactly once per in-process flight.
// recorded reports whether this call (or the flight it joined)
// performed a fresh recording rather than a load. A filled or recorded
// trace stays in memory, so the next load does not decode the file
// just written.
//
// Storage failure in either direction is absorbed rather than served:
// a load that errors at the I/O layer falls back to re-simulation
// (counted in ReadErrors), and a recording whose cache store fails is
// still returned to the caller (counted in SaveErrors) — losing a
// cache entry costs the next request a re-simulation; losing the
// response would fail this one.
func (c *Cache) GetOrRecord(k Key, record func() (*Trace, error)) (t *Trace, recorded bool, err error) {
	id := k.ID()
	o, leader, err := c.flight.Do(id, func() (cacheOutcome, error) {
		t, lerr := c.loadID(id)
		if lerr != nil {
			c.readErrors.Add(1)
		} else if t != nil {
			c.loads.Add(1)
			return cacheOutcome{t: t}, nil
		}
		if t, _ := fill(c, id, c.Fill, k); t != nil {
			c.remember(id, t)
			return cacheOutcome{t: t}, nil
		}
		t, err := record()
		if err != nil {
			return cacheOutcome{}, err
		}
		if err := c.store(k, t); err != nil {
			c.saveErrors.Add(1)
		}
		c.records.Add(1)
		// A recording for another key is served but never kept: memory
		// holds only what hashes back to its ID.
		if keyOf(t.Header) == k {
			c.remember(id, t)
		}
		return cacheOutcome{t: t, recorded: true}, nil
	})
	if !leader {
		c.joined.Add(1)
	}
	return o.t, o.recorded, err
}

// fill consults a fill hook, hook(arg), on a clean local miss of id
// (GetOrRecord passes Fill with the key, the by-ID loads FillID with
// the ID). A usable result is verified against the content address
// (the decoded header must hash back to id), persisted locally (best
// effort — a store failure costs the next request another fill, not
// this response), and returned with its file bytes; anything else —
// hook absent, hook error, empty result, or a payload that fails
// decode or verification — returns nil so the caller falls through to
// simulation. The ladder is strictly local → peer → simulate: fill
// never makes a miss worse than it already was.
func fill[A any](c *Cache, id string, hook func(A) ([]byte, error), arg A) (*Trace, []byte) {
	if hook == nil {
		return nil, nil
	}
	b, err := hook(arg)
	if err != nil {
		c.peerFillErrors.Add(1)
		return nil, nil
	}
	if len(b) == 0 {
		c.peerFillMisses.Add(1)
		return nil, nil
	}
	t, err := Decode(b)
	if err != nil || keyOf(t.Header).ID() != id {
		c.peerFillErrors.Add(1)
		return nil, nil
	}
	if err := atomicWrite(filepath.Join(c.Dir, id+".vmdt"), b); err != nil {
		c.saveErrors.Add(1)
	}
	c.peerFills.Add(1)
	return t, b
}

// ReadRaw returns the raw stored bytes of a resident trace file — the
// peer-serving side of the fill protocol. It reads the disk directly
// (no fault injection, no fill recursion: an instance serves only
// what it actually has), and the requesting peer verifies the payload
// against the content address, so no decode happens here.
func (c *Cache) ReadRaw(id string) ([]byte, error) {
	if !ValidID(id) {
		return nil, ErrNoTrace
	}
	b, err := os.ReadFile(filepath.Join(c.Dir, id+".vmdt"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNoTrace
		}
		return nil, fmt.Errorf("disptrace: %w", err)
	}
	c.peerServes.Add(1)
	return b, nil
}

// ScrubReport summarizes a cache verification pass.
type ScrubReport struct {
	// Checked counts trace files examined; Quarantined counts those
	// that failed to decode or did not match their content address
	// and were moved to the quarantine sidecar dir.
	Checked     int   `json:"checked"`
	Quarantined int   `json:"quarantined"`
	Bytes       int64 `json:"bytes"`
}

// Scrub verifies every resident trace file — full decode (checksum,
// dictionary and every step ID) plus a content-address check of the
// decoded header —
// and quarantines the failures. It reads the disk directly, bypassing
// injected read faults: scrub verifies what is actually stored.
// vmserved runs it at startup under -scrub.
func (c *Cache) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	entries, err := os.ReadDir(c.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return rep, nil
		}
		return rep, fmt.Errorf("disptrace: %w", err)
	}
	for _, e := range entries {
		id, isTrace := strings.CutSuffix(e.Name(), ".vmdt")
		if !isTrace || !ValidID(id) {
			continue
		}
		path := filepath.Join(c.Dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			continue // deleted mid-scrub, or unreadable: nothing to verify
		}
		rep.Checked++
		rep.Bytes += int64(len(b))
		t, derr := Decode(b)
		if derr == nil && keyOf(t.Header).ID() == id {
			continue
		}
		c.quarantine(path)
		rep.Quarantined++
	}
	return rep, nil
}
