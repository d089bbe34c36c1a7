package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// paperIDs is the paper's evaluation, in the order -list prints it.
const paperIDs = "cpablate fig10 fig11 fig12 fig3 fig4 fig5 fig6 fig7 fig8 fig9 mnml rule table10 table12 table7 table8 table9"

func TestListPrintsExactlyThePaper(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(strings.Fields(out.String()), " "); got != paperIDs {
		t.Fatalf("-list printed %q, want %q", got, paperIDs)
	}
	if strings.Count(out.String(), "\n") != len(strings.Fields(paperIDs)) {
		t.Fatalf("-list is not one ID per line:\n%s", out.String())
	}
}

// TestJSONSchema: -json is one array of objects with exactly the schema
// keys, every row as wide as the header.
func TestJSONSchema(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "fig3", "-scale", "0.01", "-json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("stdout is not a JSON array of objects: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results, want 1", len(results))
	}
	obj := results[0]
	for _, key := range []string{"id", "title", "header", "rows"} {
		if _, ok := obj[key]; !ok {
			t.Fatalf("result lacks %q", key)
		}
	}
	delete(obj, "notes") // optional
	if len(obj) != 4 {
		t.Fatalf("result carries keys beyond id/title/header/rows/notes: %v", obj)
	}
	var header []string
	var rows [][]string
	if err := json.Unmarshal(obj["header"], &header); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(obj["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("row %v is %d wide, header %d", row, len(row), len(header))
		}
	}
}

func TestBadInvocationsAreErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"missing -exp":    {},
		"unknown ID":      {"-exp", "nope"},
		"retired smoke":   {"-exp", "chunkpar"},
		"-scale 0":        {"-exp", "fig3", "-scale", "0"},
		"-scale negative": {"-exp", "fig3", "-scale", "-1"},
		"-scale NaN":      {"-exp", "fig3", "-scale", "NaN"},
		"unknown codec":   {"-exp", "table9", "-codec", "nope"},
		"-tmpdir a file":  {"-exp", "table9", "-scale", "0.02", "-tmpdir", "main.go"},
		"-chunked":        {"-chunked"},
		"-inproc-chunkd":  {"-exp", "table9", "-inproc-chunkd", "1"},
		"-slo-rate":       {"-exp", "fig3", "-slo-rate", "100"},
		"-mutate":         {"-exp", "fig3", "-mutate", "5"},
		"-pushdown":       {"-exp", "table9", "-pushdown"},
		"-zonemap":        {"-exp", "table9", "-zonemap"},
	} {
		var out, errOut bytes.Buffer
		err := run(args, &out, &errOut)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error is not one line: %q", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote to stdout before failing: %q", name, out.String())
		}
	}
}
