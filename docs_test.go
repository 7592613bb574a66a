package ips

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestCitedBenchSnapshotsExist pins the evidence trail: every BENCH_*.json
// snapshot that README.md, DESIGN.md or CHANGES.md names must be committed
// at the repository root and parse as JSON, so no quoted number points at a
// file the tree does not have.
func TestCitedBenchSnapshotsExist(t *testing.T) {
	cite := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	cited := map[string][]string{}
	for _, doc := range []string{"README.md", "DESIGN.md", "CHANGES.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(text), -1) {
			cited[name] = append(cited[name], doc)
		}
	}
	if len(cited) == 0 {
		t.Fatal("no BENCH_*.json citation found; the pattern or the docs changed")
	}
	names := make([]string, 0, len(cited))
	for name := range cited {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		docs := cited[name]
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("%s (cited in %v): %v", name, docs, err)
			continue
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Errorf("%s (cited in %v) does not parse: %v", name, docs, err)
		}
	}
}
