package main

import (
	"strings"
	"testing"
)

// TestReportOneProcess runs the report with a single process, which never
// switches: it must say so instead of dividing by the zero switch count.
func TestReportOneProcess(t *testing.T) {
	var b strings.Builder
	report(&b, 1, 1000, 1024)
	out := b.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("report prints NaN:\n%s", out)
	}
	if !strings.Contains(out, "0 round-robin switches:\n  no context switch happened") {
		t.Errorf("report does not say that no switch happened:\n%s", out)
	}
}
