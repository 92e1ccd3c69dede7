// Package journal is the crash-safe result journal behind resumable
// experiments (docs/RESILIENCE.md): an append-only JSONL file, fsync'd
// record by record, that the fleet writes as each simulation job
// completes. After a panic, OOM kill or SIGKILL, a resumed run loads
// the journal, replays every completed job as a cache hit, and re-runs
// only the missing or failed ones — producing byte-identical reports
// to an uninterrupted run, because each journaled result is the JSON
// round-trip of a pure (config, seed) function.
//
// Records are keyed by (experiment label, config hash, derived seed,
// job index). The seed in the key is the job's *derived* per-run seed,
// so a key can only hit when the resumed invocation derives exactly
// the same perturbation stream — any change to the seed schedule, the
// configuration or the run matrix misses the cache and re-simulates.
//
// The journal lives outside the determinism wall: it does file I/O and
// holds a mutex, and its write order follows job *completion* order,
// which is host-scheduler timing. That is safe because resume reads by
// key, never by position.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// FileName is the journal's file name inside a journal directory.
const FileName = "journal.jsonl"

// Record statuses.
const (
	StatusOK     = "ok"     // the job completed; Result holds its JSON
	StatusFailed = "failed" // the job returned an error or panicked; Error set
	// StatusDigest is a run's interval state-digest stream (Result
	// holds a digest.Series as JSON). Digest records share their run's
	// Key and ride alongside its StatusOK record, so 'varsim diff'
	// works post-hoc from the journal and a digested space replays
	// across -resume without re-simulating.
	StatusDigest = "digest"
	// StatusDecision is an adaptive-sampling barrier decision (Result
	// holds a sampling.Decision as JSON). Decision records are keyed by
	// (experiment, config hash, seed base, round index) — NOT a run's
	// derived seed — so a -resume replays the exact stopping choices
	// the interrupted run took instead of re-deriving them from a
	// partially journaled round.
	StatusDecision = "decision"
)

// Key identifies one journaled job. Two invocations that agree on all
// four fields computed the same pure function.
type Key struct {
	Experiment string `json:"experiment"`  // space label, e.g. "4-way"
	ConfigHash string `json:"config_hash"` // ConfigHash of the resolved config
	Seed       uint64 `json:"seed"`        // the job's derived perturbation seed
	Index      int    `json:"index"`       // job index within the space
}

// String renders the key for log messages.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s seed %d run %d", k.Experiment, k.ConfigHash, k.Seed, k.Index)
}

// Record is one journal entry: a key, how the job ended, and either its
// result (as the raw JSON the producing type marshalled to) or its
// terminal error.
type Record struct {
	Key
	Status   string          `json:"status"`
	Attempts int             `json:"attempts,omitempty"` // attempts consumed; core writes 1
	Error    string          `json:"error,omitempty"`    // terminal failure, StatusFailed only
	Result   json.RawMessage `json:"result,omitempty"`   // job result JSON, StatusOK only
}

// Validate checks the structural invariants the codec enforces.
func (r Record) Validate() error {
	switch r.Status {
	case StatusOK, StatusDigest, StatusDecision:
		if len(r.Result) == 0 || !json.Valid(r.Result) {
			return fmt.Errorf("journal: %s record needs a valid JSON result", r.Status)
		}
	case StatusFailed:
		if r.Error == "" {
			return errors.New("journal: failed record needs an error message")
		}
	default:
		return fmt.Errorf("journal: unknown record status %q", r.Status)
	}
	if r.Experiment == "" {
		return errors.New("journal: record needs an experiment label")
	}
	if r.Index < 0 {
		return errors.New("journal: negative job index")
	}
	if r.Attempts < 0 {
		return errors.New("journal: negative attempt count")
	}
	return nil
}

// Encode renders a record as one newline-terminated JSONL line. The
// Result payload is written as it stands but for insignificant
// whitespace: HTML escaping is off, or json would rewrite the '&', '<'
// and '>' of a RawMessage and a decoded record would not re-encode to
// itself. (Journals written with the escapes decode to the same values:
// both spellings are valid JSON.)
func Encode(r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil { // Encode ends the line
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	return line.Bytes(), nil
}

// Decode parses one journal line (with or without its trailing
// newline) into a Record, validating the invariants Encode enforces.
// It never panics, whatever the input.
func Decode(line []byte) (Record, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("journal: decode: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// ---- process-wide stats ---------------------------------------------

// Stats is a point-in-time view of process-wide journal activity, read
// by the progress ledger (obs.Fleet) behind /status, /metrics and the
// heartbeat.
type Stats struct {
	// Appended is the number of records durably written (fsync'd).
	Appended int64 `json:"appended"`
	// Lag is the number of appends started but not yet durable — how
	// many completed jobs a crash right now would lose.
	Lag int64 `json:"lag"`
	// Hits is the number of records an earlier process journaled that
	// a resume merged; serving a record this process settled is reuse,
	// not a replay, and counts none.
	Hits int64 `json:"hits"`
}

var (
	appendsStarted atomic.Int64
	appendsDurable atomic.Int64
	cacheHits      atomic.Int64
)

// ReadStats returns the process-wide journal counters.
func ReadStats() Stats {
	durable := appendsDurable.Load()
	return Stats{
		Appended: durable,
		Lag:      appendsStarted.Load() - durable,
		Hits:     cacheHits.Load(),
	}
}

// ---- writer ---------------------------------------------------------

// Writer appends records to a journal file, fsyncing after every
// record so a completed job survives any subsequent crash. A nil
// *Writer is a valid no-op journal, so callers thread it
// unconditionally. Append errors are sticky: the first one disables
// the writer and is reported by Err and Close, keeping the hot path
// free of per-call error plumbing in the fleet.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error
}

// Create opens (creating or appending to) the journal file at path and
// fsyncs its directory entry so the file itself survives a crash.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	syncDir(filepath.Dir(path))
	return &Writer{f: f, path: path}, nil
}

// CreateDir creates dir (if needed) and opens dir/journal.jsonl.
func CreateDir(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return Create(filepath.Join(dir, FileName))
}

// syncDir best-effort fsyncs a directory so a freshly created journal
// file's entry is durable; some filesystems reject directory syncs,
// which is not worth failing the run over.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck
	d.Close()
}

// Path returns the journal file path ("" for a nil writer).
func (w *Writer) Path() string {
	if w == nil {
		return ""
	}
	return w.path
}

// Append durably writes one record: encode, write, fsync. Safe for
// concurrent use from fleet workers and a no-op on a nil receiver or
// after a previous append failed (see Err).
func (w *Writer) Append(r Record) error {
	if w == nil {
		return nil
	}
	line, err := Encode(r)
	if err != nil {
		return err
	}
	appendsStarted.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && w.f == nil {
		w.err = errors.New("journal: append after Close")
	}
	if w.err != nil {
		appendsStarted.Add(-1)
		return w.err
	}
	_, werr := w.f.Write(line)
	if werr == nil {
		werr = w.f.Sync()
	}
	if werr != nil {
		w.err = fmt.Errorf("journal: append: %w", werr)
		appendsStarted.Add(-1)
		return w.err
	}
	appendsDurable.Add(1)
	return nil
}

// Err returns the sticky append error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close syncs and closes the file, returning the sticky append error
// if one occurred. Nil-safe.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		cerr := w.f.Close()
		w.f = nil
		if w.err == nil && cerr != nil {
			w.err = fmt.Errorf("journal: close: %w", cerr)
		}
	}
	return w.err
}

// ---- load and recovery ----------------------------------------------

// LoadResult is what Load found in a journal file: the valid record
// prefix, and how much trailing corruption (torn writes, garbage) was
// skipped after it.
type LoadResult struct {
	Records        []Record
	ValidBytes     int64 // offset of the end of the last good record
	DroppedRecords int   // lines after the first bad one (inclusive)
	DroppedBytes   int64
}

// Load reads the journal at path, keeping the longest valid record
// prefix: it stops at the first record that fails to decode (a torn
// final write, or mid-file corruption) and reports everything after it
// as dropped. A missing file is an empty journal, not an error.
func Load(path string) (LoadResult, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return LoadResult{}, nil
	}
	if err != nil {
		return LoadResult{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var size int64
	if info, err := f.Stat(); err == nil {
		size = info.Size()
	}
	res, err := load(f)
	if errors.Is(err, bufio.ErrTooLong) {
		// A line past the scanner cap cannot be a record we wrote:
		// treat it and everything after it as corruption.
		res.DroppedRecords++
		res.DroppedBytes = size - res.ValidBytes
		return res, nil
	}
	return res, err
}

func load(r io.Reader) (LoadResult, error) {
	var res LoadResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	bad := false
	for sc.Scan() {
		line := sc.Bytes()
		// Scanner strips the newline; account for it when the line is
		// in the valid prefix. A final line without a newline still
		// counts as len(line) bytes either way.
		if bad {
			res.DroppedRecords++
			res.DroppedBytes += int64(len(line)) + 1
			continue
		}
		rec, err := Decode(line)
		if err != nil {
			bad = true
			res.DroppedRecords++
			res.DroppedBytes += int64(len(line)) + 1
			continue
		}
		res.Records = append(res.Records, rec)
		res.ValidBytes += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("journal: read: %w", err)
	}
	return res, nil
}

// Recover loads the journal at path and, when trailing corruption was
// found, truncates the file back to the last good record and logs what
// was dropped through logf (which may be nil). This is the resume
// path's first step: after it, appends continue from a clean tail.
func Recover(path string, logf func(format string, args ...any)) (LoadResult, error) {
	res, err := Load(path)
	if err != nil {
		return res, err
	}
	if res.DroppedRecords == 0 {
		return res, nil
	}
	if logf != nil {
		logf("journal: dropped %d corrupt record(s) (%d bytes) after offset %d of %s; truncating",
			res.DroppedRecords, res.DroppedBytes, res.ValidBytes, path)
	}
	if err := os.Truncate(path, res.ValidBytes); err != nil {
		return res, fmt.Errorf("journal: truncate: %w", err)
	}
	return res, nil
}

// ---- resume cache ---------------------------------------------------

// Cache indexes run records by key: the records of a journal loaded for
// resume (NewCache) and every record this process has settled since
// (Put), so one process never simulates a run twice. Only StatusOK
// records replay as hits — failed jobs are re-run. When several records
// share a key (a failure a later resume re-ran to success), the last
// one filed wins. Safe for concurrent use: fleet workers replay and
// settle through one cache.
type Cache struct {
	mu    sync.Mutex
	byKey map[Key]Record
	// digests holds StatusDigest records separately: they share their
	// run's Key, so folding them into byKey would clobber the run
	// record (or be clobbered by it) depending on append order.
	digests map[Key]Record
	// decisions holds StatusDecision records separately for the same
	// reason: a decision's key (seed base, round index) can collide
	// with a run key, and neither may shadow the other on resume.
	decisions map[Key]Record
	// settled marks the keys this process filed with Put: serving one is
	// in-process reuse, not a journal replay, and counts no hit.
	settled map[Key]bool
	// taken marks the keys Take has handed out (see Take).
	taken map[Key]bool
}

// NewCache builds a cache over recs (normally LoadResult.Records).
func NewCache(recs []Record) *Cache {
	c := &Cache{
		byKey:     make(map[Key]Record, len(recs)),
		digests:   make(map[Key]Record),
		decisions: make(map[Key]Record),
		settled:   make(map[Key]bool),
		taken:     make(map[Key]bool),
	}
	for _, r := range recs {
		c.file(r)
	}
	return c
}

// file indexes one record by its status. The caller holds mu or owns c.
func (c *Cache) file(r Record) {
	switch r.Status {
	case StatusDigest:
		c.digests[r.Key] = r
	case StatusDecision:
		c.decisions[r.Key] = r
	default:
		c.byKey[r.Key] = r
	}
}

// Put files a record this process settled, exactly as a resume would
// load it from the journal, so a later ask for the run replays it. A
// hit on it is not a journal replay: Get and Digest count none. Nil-safe.
func (c *Cache) Put(r Record) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.file(r)
	c.settled[r.Key] = true
}

// Take reports whether key is taken for the first time in this process,
// and marks it taken: the precision observer sees a run only when Take
// says so, whether the run settled here or replayed (once or many
// times). A nil cache remembers nothing, so every Take is a first.
func (c *Cache) Take(key Key) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.taken[key] {
		return false
	}
	c.taken[key] = true
	return true
}

// Get returns the completed record for key, counting a process-wide
// cache hit when an earlier process journaled it. Failed records and
// unknown keys miss. Nil-safe.
func (c *Cache) Get(key Key) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.byKey[key]
	if !ok || r.Status != StatusOK {
		return Record{}, false
	}
	c.replayed(key)
	return r, true
}

// replayed counts a hit on key's records unless this process settled
// them. The caller holds mu.
func (c *Cache) replayed(key Key) {
	if !c.settled[key] {
		cacheHits.Add(1)
	}
}

// Has reports whether key would hit — an ok record exists — without
// counting a cache hit or touching the record. core peeks with it
// before it reads a run back, so a record it cannot use (a digested
// plan's run without its digest record) counts no hit. Nil-safe.
func (c *Cache) Has(key Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.byKey[key]
	return ok && r.Status == StatusOK
}

// HasDigest is Has for key's digest record: whether Digest would hit,
// without counting one. Nil-safe.
func (c *Cache) HasDigest(key Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.digests[key]
	return ok
}

// Decision returns the journaled barrier decision for key, counting a
// process-wide cache hit. Nil-safe.
func (c *Cache) Decision(key Key) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.decisions[key]
	if !ok {
		return Record{}, false
	}
	cacheHits.Add(1)
	return r, true
}

// Digest returns the digest record for key, counting a process-wide
// cache hit when an earlier process journaled it. Nil-safe.
func (c *Cache) Digest(key Key) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.digests[key]
	if !ok {
		return Record{}, false
	}
	c.replayed(key)
	return r, true
}

// OpenDir is the resume entry point: recover the journal in dir
// (truncating any trailing corruption, logged through logf), build the
// replay cache, and reopen the journal for appending the re-run jobs.
func OpenDir(dir string, logf func(format string, args ...any)) (*Cache, *Writer, error) {
	path := filepath.Join(dir, FileName)
	res, err := Recover(path, logf)
	if err != nil {
		return nil, nil, err
	}
	w, err := Create(path)
	if err != nil {
		return nil, nil, err
	}
	return NewCache(res.Records), w, nil
}

// ---- config hashing -------------------------------------------------

// ConfigHash returns a short stable hash of any JSON-encodable
// configuration value — the key component that ties a journal record
// to the exact configuration that produced it. Two runs with equal
// hashes ran byte-identical configurations.
func ConfigHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unhashable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
