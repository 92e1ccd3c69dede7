package sampling

import (
	"encoding/json"
	"reflect"
	"testing"

	"varsim/internal/journal"
)

// FuzzDecisionCodec pins the decision codec's two safety properties:
// DecodeDecision never panics on arbitrary record payloads (decision
// records are replayed from crash-recovered journals, so any torn or
// hostile JSON may reach it), and any payload it accepts survives an
// encode/decode round trip with every field intact — the property the
// -resume decision replay's determinism rests on.
func FuzzDecisionCodec(f *testing.F) {
	key := DecisionKey("4-way", "00112233aabbccdd", 0xFEED, 3)
	seed := func(d Decision) {
		if rec, err := EncodeDecision(key, d); err == nil {
			f.Add([]byte(rec.Result))
		}
	}
	seed(Decision{Round: 0, N: 4, Action: ActionContinue, RelPct: 6.5, Needed: 11, Next: 4})
	seed(Decision{Round: 2, N: 12, Action: ActionStop, RelPct: 3.2, Needed: 11})
	seed(Decision{Round: 5, N: 64, Action: ActionBudget, RelPct: 8.8, Needed: 300})
	seed(Decision{Round: 1, N: 8, Action: ActionDecided, RelPct: 4.4, Needed: 9})
	seed(Decision{Round: 0, N: 12, Action: ActionContinue, RelPct: 1.2, Needed: 40, Next: 12}) // three strata, four runs each
	f.Add([]byte(""))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"round":-1,"action":"stop"}`))
	f.Add([]byte(`{"action":"continue","next":0}`))
	f.Add([]byte(`{"action":"continue","next":2,"alloc":[1,2]}`)) // a field older journals carry
	f.Add([]byte(`{"action":"stop","rel_pct":-4}`))
	f.Add([]byte(`{"action":"retire","n":1e9}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec := journal.Record{Key: key, Status: journal.StatusDecision, Result: json.RawMessage(payload)}
		d, err := DecodeDecision(rec) // must never panic
		if err != nil {
			return
		}
		re, err := EncodeDecision(key, d)
		if err != nil {
			t.Fatalf("accepted decision failed to re-encode: %v\ndecision: %+v", err, d)
		}
		back, err := DecodeDecision(re)
		if err != nil {
			t.Fatalf("re-encoded decision failed to decode: %v\npayload: %s", err, re.Result)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, d)
		}
	})
}
