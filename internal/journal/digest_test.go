package journal

import (
	"path/filepath"
	"testing"

	"varsim/internal/digest"
)

func testSeries() digest.Series {
	r := digest.NewRecorder(10_000)
	r.Record(10_000, digest.Vector{1, 2, 3, 4, 5})
	r.Record(20_000, digest.Vector{^uint64(0), 1 << 63, 9, 9, 9})
	return r.Series()
}

func TestDigestRecordRoundTrip(t *testing.T) {
	key := Key{Experiment: "base", ConfigHash: "abc", Seed: 7, Index: 3}
	rec, err := DigestRecord(key, testSeries())
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("digest record invalid: %v", err)
	}
	line, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeDigest(back)
	if err != nil {
		t.Fatal(err)
	}
	want := testSeries()
	if s.IntervalNS != want.IntervalNS || len(s.Samples) != len(want.Samples) {
		t.Fatalf("series shape: %+v vs %+v", s, want)
	}
	for i := range want.Samples {
		if s.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d: %+v vs %+v", i, s.Samples[i], want.Samples[i])
		}
	}
}

func TestDecodeDigestRejectsWrongStatus(t *testing.T) {
	if _, err := DecodeDigest(Record{Key: Key{Experiment: "e"}, Status: StatusOK}); err == nil {
		t.Fatal("DecodeDigest accepted a non-digest record")
	}
}

func TestCacheSeparatesDigestRecords(t *testing.T) {
	// A digest record shares its run's Key; the cache must serve both
	// independently regardless of append order.
	key := Key{Experiment: "base", ConfigHash: "abc", Seed: 7, Index: 0}
	run := Record{Key: key, Status: StatusOK, Attempts: 1, Result: []byte(`{"CPT":1}`)}
	dig, err := DigestRecord(key, testSeries())
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range map[string][]Record{
		"run-then-digest": {run, dig},
		"digest-then-run": {dig, run},
	} {
		c := NewCache(recs)
		if got, ok := c.Get(key); !ok || got.Status != StatusOK {
			t.Fatalf("%s: run record lost: %+v ok=%v", name, got, ok)
		}
		if got, ok := c.Digest(key); !ok || got.Status != StatusDigest {
			t.Fatalf("%s: digest record lost: %+v ok=%v", name, got, ok)
		}
		if len(c.byKey) != 1 || !c.HasDigest(key) {
			t.Fatalf("%s: Len=%d HasDigest=%v, want 1/true", name, len(c.byKey), c.HasDigest(key))
		}
	}
}

func TestDigestRecordsSurviveJournalFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Experiment: "base", ConfigHash: "abc", Seed: 7, Index: 0}
	run := Record{Key: key, Status: StatusOK, Attempts: 1, Result: []byte(`{"CPT":1}`)}
	dig, err := DigestRecord(key, testSeries())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(run); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(dig); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cache, w2, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec, ok := cache.Digest(key)
	if !ok {
		t.Fatal("digest record not replayed from disk")
	}
	s, err := DecodeDigest(rec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("replayed series has %d samples, want 2", s.Len())
	}
	if _, ok := cache.Get(key); !ok {
		t.Fatal("run record not replayed alongside its digest")
	}
}
