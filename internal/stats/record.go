package stats

import (
	"encoding/json"
	"io"
	"sync"
)

// Recorder collects named experiment outputs (the typed row slices the
// drivers return) and writes them as one machine-readable JSON document, so
// a suite run can be post-processed (plotting, regression diffing) without
// re-parsing the human-readable tables. The zero value is ready to use and
// safe for concurrent Record calls.
type Recorder struct {
	mu       sync.Mutex
	sections []Section
}

// Section is one named block of results.
type Section struct {
	Name string `json:"name"`
	Rows any    `json:"rows"`
}

// Record appends a named section. rows is typically a slice of the driver's
// row structs; it must be json-marshalable. Sections keep insertion order.
func (r *Recorder) Record(name string, rows any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sections = append(r.sections, Section{Name: name, Rows: rows})
}

// WriteJSON emits the recorded sections as an indented JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Sections []Section `json:"sections"`
	}{Sections: r.sections})
}
