package sampling

import (
	"reflect"
	"strings"
	"testing"

	"varsim/internal/journal"
)

func TestDecisionKeyDistinctFromRunKeys(t *testing.T) {
	// A decision key carries the seed *base* and the round index; run
	// keys carry derived seeds. Different rounds must yield different
	// keys under the same arm identity.
	a := DecisionKey("4-way", "hash", 0xFEED, 0)
	b := DecisionKey("4-way", "hash", 0xFEED, 1)
	if a == b {
		t.Fatal("rounds 0 and 1 share a key")
	}
	if a.Seed != 0xFEED || a.Index != 0 || a.Experiment != "4-way" || a.ConfigHash != "hash" {
		t.Fatalf("key fields: %+v", a)
	}
}

func TestEncodeDecisionRejectsInvalid(t *testing.T) {
	key := DecisionKey("e", "h", 1, 0)
	if _, err := EncodeDecision(key, Decision{Action: ActionContinue, Next: 0}); err == nil {
		t.Fatal("invalid decision encoded")
	}
	rec, err := EncodeDecision(key, Decision{Action: ActionStop, N: 8, RelPct: 3.5, Needed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != journal.StatusDecision {
		t.Fatalf("status = %q", rec.Status)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("encoded record fails journal validation: %v", err)
	}
}

func TestDecodeDecisionRejects(t *testing.T) {
	key := DecisionKey("e", "h", 1, 0)
	cases := []struct {
		rec  journal.Record
		want string
	}{
		{journal.Record{Key: key, Status: journal.StatusOK, Result: []byte(`{}`)}, "not a decision"},
		{journal.Record{Key: key, Status: journal.StatusDecision, Result: []byte(`{{{`)}, "decode decision"},
		{journal.Record{Key: key, Status: journal.StatusDecision, Result: []byte(`{"action":"continue"}`)}, "positive next round"},
	}
	for i, c := range cases {
		_, err := DecodeDecision(c.rec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want substring %q", i, err, c.want)
		}
	}
}

func TestDecisionJournalRoundTripThroughCache(t *testing.T) {
	// A decision record written through the journal codec lands in the
	// cache's decision map — not the run map — and decodes intact.
	key := DecisionKey("4-way", "hash", 0xFEED, 2)
	d := Decision{Round: 2, N: 12, Action: ActionContinue, RelPct: 5.5, Needed: 16, Next: 4}
	rec, err := EncodeDecision(key, d)
	if err != nil {
		t.Fatal(err)
	}
	line, err := journal.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := journal.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	// A run record filed first under the same key must survive it.
	cache := journal.NewCache([]journal.Record{{Key: key, Status: journal.StatusOK}, back})
	if run, ok := cache.Get(key); !ok || run.Status != journal.StatusOK {
		t.Fatalf("decision landed in the run map: Get = %+v, %v", run, ok)
	}
	got, ok := cache.Decision(key)
	if !ok {
		t.Fatal("decision not replayable")
	}
	dd, err := DecodeDecision(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dd, d) {
		t.Fatalf("round trip mismatch: got %+v want %+v", dd, d)
	}
}

func TestDecodeDecisionIgnoresLegacyAlloc(t *testing.T) {
	// Journals written while stratified rounds carried a per-stratum
	// split still decode: the field is no longer read.
	rec := journal.Record{Key: DecisionKey("e", "h", 1, 0), Status: journal.StatusDecision,
		Result: []byte(`{"round":0,"n":12,"action":"continue","needed":40,"next":6,"alloc":[4,0,2]}`)}
	d, err := DecodeDecision(rec)
	if err != nil || d.Next != 6 || d.Needed != 40 {
		t.Fatalf("legacy decision: %+v, %v", d, err)
	}
}
