package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func okRecord(i int) Record {
	return Record{
		Key: Key{
			Experiment: "4-way",
			ConfigHash: "00112233aabbccdd",
			Seed:       0xFEED + uint64(i),
			Index:      i,
		},
		Status:   StatusOK,
		Attempts: 1,
		Result:   json.RawMessage(fmt.Sprintf(`{"CPT":%d.5,"Txns":%d}`, 100+i, 200)),
	}
}

// TestCodecRoundTrip: Encode then Decode must reproduce the record
// exactly, including the raw result bytes — the property resume's
// byte-identity rests on.
func TestCodecRoundTrip(t *testing.T) {
	recs := []Record{
		okRecord(0),
		okRecord(7),
		{Key: Key{Experiment: "e", ConfigHash: "h", Seed: 1, Index: 3},
			Status: StatusFailed, Attempts: 4, Error: "timed out after 5ms"},
	}
	for _, r := range recs {
		line, err := Encode(r)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", r, err)
		}
		if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
			t.Fatalf("encoded line is not one newline-terminated record: %q", line)
		}
		got, err := Decode(line)
		if err != nil {
			t.Fatalf("Decode(%s): %v", line, err)
		}
		if got.Key != r.Key || got.Status != r.Status || got.Attempts != r.Attempts ||
			got.Error != r.Error || !bytes.Equal(got.Result, r.Result) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
	}
}

// TestDecodeRejectsInvalid: malformed or invariant-breaking lines must
// error, never panic, and never come back as usable records.
func TestDecodeRejectsInvalid(t *testing.T) {
	for _, line := range []string{
		"",
		"not json",
		`{"status":"ok"}`,                  // no result, no experiment
		`{"experiment":"e","status":"ok"}`, // ok without result
		`{"experiment":"e","status":"maybe","result":"1"}`,         // unknown status
		`{"experiment":"e","status":"failed"}`,                     // failed without error
		`{"experiment":"e","status":"ok","result":"1","index":-1}`, // negative index
		`{"experiment":"","status":"ok","result":"1"}`,             // empty label
	} {
		if _, err := Decode([]byte(line)); err == nil {
			t.Errorf("Decode(%q) accepted an invalid record", line)
		}
	}
}

// TestWriterAppendAndLoad: records appended through the writer come
// back from Load in order, with no drops.
func TestWriterAppendAndLoad(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(okRecord(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Load(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 || res.DroppedRecords != 0 {
		t.Fatalf("Load: %d records, %d dropped; want 5, 0", len(res.Records), res.DroppedRecords)
	}
	for i, r := range res.Records {
		if r.Index != i {
			t.Errorf("record %d has index %d", i, r.Index)
		}
	}
}

// TestLoadMissingFile: a nonexistent journal is an empty journal.
func TestLoadMissingFile(t *testing.T) {
	res, err := Load(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || len(res.Records) != 0 || res.DroppedRecords != 0 {
		t.Fatalf("Load(missing) = %+v, %v; want empty, nil", res, err)
	}
}

// TestRecoverTruncatesTornTail: a journal whose final record was cut
// mid-write (the SIGKILL case) must recover to the valid prefix, and
// appends after recovery must produce a clean journal.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(okRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the tail: append half of a record, no newline.
	full, _ := Encode(okRecord(3))
	torn := full[:len(full)/2]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()

	var logged strings.Builder
	res, err := Recover(path, func(format string, args ...any) {
		fmt.Fprintf(&logged, format, args...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(res.Records))
	}
	if res.DroppedRecords != 1 || res.DroppedBytes == 0 {
		t.Errorf("dropped %d records / %d bytes, want 1 / >0", res.DroppedRecords, res.DroppedBytes)
	}
	if !strings.Contains(logged.String(), "dropped 1 corrupt record") {
		t.Errorf("recovery did not log the drop: %q", logged.String())
	}

	// The file must now end exactly at the valid prefix...
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != res.ValidBytes {
		t.Errorf("file is %d bytes after recovery, want %d", info.Size(), res.ValidBytes)
	}
	// ...and further appends must yield a fully valid journal.
	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(okRecord(3)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	res2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != 4 || res2.DroppedRecords != 0 {
		t.Fatalf("after recovery+append: %d records, %d dropped; want 4, 0", len(res2.Records), res2.DroppedRecords)
	}
}

// TestRecoverMidFileCorruption: corruption in the middle truncates
// everything from the first bad record on, even later valid records —
// position-independent replay must not resurrect records beyond a hole.
func TestRecoverMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		line, _ := Encode(okRecord(i))
		buf.Write(line)
	}
	buf.WriteString("{{{ garbage\n")
	line, _ := Encode(okRecord(2))
	buf.Write(line)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(res.Records))
	}
	if res.DroppedRecords != 2 {
		t.Errorf("dropped %d records, want 2 (the garbage line and the record after it)", res.DroppedRecords)
	}
}

// TestCacheSemantics: only ok records hit; failed records and unknown
// keys re-run; duplicate keys resolve to the latest record.
func TestCacheSemantics(t *testing.T) {
	fail := Record{Key: okRecord(1).Key, Status: StatusFailed, Attempts: 2, Error: "boom"}
	retriedOK := okRecord(1)
	retriedOK.Attempts = 3
	c := NewCache([]Record{okRecord(0), fail, retriedOK})
	if len(c.byKey) != 2 {
		t.Errorf("Len = %d, want 2 distinct keys", len(c.byKey))
	}
	if _, ok := c.Get(okRecord(0).Key); !ok {
		t.Error("ok record missed")
	}
	got, ok := c.Get(okRecord(1).Key)
	if !ok || got.Attempts != 3 {
		t.Errorf("duplicate key resolved to %+v, want the later ok record", got)
	}
	if _, ok := c.Get(Key{Experiment: "other"}); ok {
		t.Error("unknown key hit")
	}
	var nilCache *Cache
	if _, ok := nilCache.Get(okRecord(0).Key); ok {
		t.Error("nil cache hit")
	}

	failOnly := NewCache([]Record{fail})
	if _, ok := failOnly.Get(fail.Key); ok {
		t.Error("failed record served as a hit")
	}
}

// TestCacheTakeOnce: a key is taken once per cache however many
// goroutines ask, a nil cache remembers nothing, and a record this
// process filed serves like a journaled one but counts no replay.
func TestCacheTakeOnce(t *testing.T) {
	c := NewCache([]Record{okRecord(0)})
	var wg sync.WaitGroup
	var firsts atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if c.Take(okRecord(i).Key) {
					firsts.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if firsts.Load() != 3 {
		t.Errorf("8 goroutines took 3 keys %d times, want once each", firsts.Load())
	}
	var nilCache *Cache
	if !nilCache.Take(okRecord(0).Key) || !nilCache.Take(okRecord(0).Key) {
		t.Error("a nil cache refused a take")
	}

	before := ReadStats().Hits
	c.Put(okRecord(1))
	c.Put(Record{Key: okRecord(1).Key, Status: StatusDigest, Result: json.RawMessage(`{}`)})
	if _, ok := c.Get(okRecord(1).Key); !ok {
		t.Error("a settled record missed")
	}
	if _, ok := c.Digest(okRecord(1).Key); !ok {
		t.Error("a settled digest record missed")
	}
	if d := ReadStats().Hits - before; d != 0 {
		t.Errorf("serving settled records counted %d replays, want 0", d)
	}
	c.Get(okRecord(0).Key)
	if d := ReadStats().Hits - before; d != 1 {
		t.Errorf("serving a journaled record counted %d replays, want 1", d)
	}
}

// TestOpenDirRoundTrip: the resume entry point recovers, caches and
// reopens for append in one call.
func TestOpenDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(okRecord(0))
	w.Close()

	cache, w2, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(cache.byKey) != 1 {
		t.Fatalf("cache has %d records, want 1", len(cache.byKey))
	}
	if err := w2.Append(okRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	res, _ := Load(filepath.Join(dir, FileName))
	if len(res.Records) != 2 {
		t.Fatalf("journal has %d records after resume append, want 2", len(res.Records))
	}
}

// TestNilWriterIsNoOp: optional journaling threads a nil writer.
func TestNilWriterIsNoOp(t *testing.T) {
	var w *Writer
	if err := w.Append(okRecord(0)); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if w.Path() != "" || w.Err() != nil {
		t.Error("nil writer leaked state")
	}
}

// TestStatsCounters: appends and hits advance the process-wide stats,
// and lag returns to zero once appends are durable.
func TestStatsCounters(t *testing.T) {
	before := ReadStats()
	dir := t.TempDir()
	w, err := CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(okRecord(0))
	w.Append(okRecord(1))
	w.Close()
	c := NewCache([]Record{okRecord(0)})
	c.Get(okRecord(0).Key)
	after := ReadStats()
	if d := after.Appended - before.Appended; d != 2 {
		t.Errorf("Appended advanced by %d, want 2", d)
	}
	if after.Lag != before.Lag {
		t.Errorf("Lag = %d after quiescence, want baseline %d", after.Lag, before.Lag)
	}
	if d := after.Hits - before.Hits; d != 1 {
		t.Errorf("Hits advanced by %d, want 1", d)
	}
}

// TestConfigHashStability: equal values hash equal, different values
// hash different, and the hash is a function of the JSON encoding.
func TestConfigHashStability(t *testing.T) {
	type cfg struct{ A, B int }
	h1, h2 := ConfigHash(cfg{1, 2}), ConfigHash(cfg{1, 2})
	if h1 != h2 {
		t.Errorf("equal values hashed %s vs %s", h1, h2)
	}
	if ConfigHash(cfg{1, 2}) == ConfigHash(cfg{1, 3}) {
		t.Error("different values collided")
	}
	if ConfigHash(func() {}) != "unhashable" {
		t.Error("unencodable value should hash as unhashable")
	}
}
