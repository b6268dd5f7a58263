package stats

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRecorderRoundTrip(t *testing.T) {
	type row struct {
		App   string  `json:"app"`
		Value float64 `json:"value"`
	}
	var r Recorder
	r.Record("fig8", []row{{"BFS", 1.5}, {"GUPS", 2.25}})
	r.Record("meta", map[string]int{"scale": 1})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sections []struct {
			Name string          `json:"name"`
			Rows json.RawMessage `json:"rows"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Sections) != 2 || doc.Sections[0].Name != "fig8" || doc.Sections[1].Name != "meta" {
		t.Fatalf("sections = %+v", doc.Sections)
	}
	var rows []row
	if err := json.Unmarshal(doc.Sections[0].Rows, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].App != "GUPS" || rows[1].Value != 2.25 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record("s", j)
			}
		}()
	}
	wg.Wait()
	if got := len(r.sections); got != 1600 {
		t.Fatalf("sections = %d, want 1600", got)
	}
}
