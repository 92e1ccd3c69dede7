package journal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRecordCodec pins the journal codec's two safety properties:
// Decode never panics on arbitrary bytes (journals are replayed from
// disk after crashes, so any torn or corrupt line may reach it), and
// any line Decode accepts survives an encode/decode round trip with
// every field intact — the property resume's byte-identity rests on.
func FuzzRecordCodec(f *testing.F) {
	seed := func(r Record) {
		if line, err := Encode(r); err == nil {
			f.Add(line)
		}
	}
	seed(Record{
		Key:    Key{Experiment: "4-way", ConfigHash: "00112233aabbccdd", Seed: 0xFEED, Index: 0},
		Status: StatusOK, Attempts: 1, Result: json.RawMessage(`{"CPT":101.5,"Txns":200}`),
	})
	seed(Record{
		Key:    Key{Experiment: "oltp/simple", ConfigHash: "ffffffffffffffff", Seed: ^uint64(0), Index: 399},
		Status: StatusFailed, Attempts: 4, Error: "fleet: job attempt timed out after 5ms",
	})
	f.Add([]byte(""))
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"experiment":"e","status":"ok","result":123}` + "\n"))
	f.Add([]byte(`{"experiment":"e","status":"failed"}` + "\n"))
	f.Add([]byte(`{"experiment":"e","status":"ok","result":"x","index":-1}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := Decode(line) // must never panic
		if err != nil {
			return
		}
		re, err := Encode(rec)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v\nrecord: %+v", err, rec)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v\nline: %s", err, re)
		}
		// Encode drops the payload's insignificant whitespace and nothing
		// else: the Result comes back as the compact form of what went in.
		var want bytes.Buffer
		if len(rec.Result) > 0 {
			if err := json.Compact(&want, rec.Result); err != nil {
				t.Fatalf("decoded result is not JSON: %v\nresult: %s", err, rec.Result)
			}
		}
		if back.Key != rec.Key || back.Status != rec.Status || back.Attempts != rec.Attempts ||
			back.Error != rec.Error || !bytes.Equal(back.Result, want.Bytes()) {
			t.Fatalf("round trip mismatch:\n got %+v (result %s)\nwant %+v (result %s)", back, back.Result, rec, want.Bytes())
		}
	})
}
