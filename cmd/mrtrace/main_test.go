package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins mrtrace's reports byte for byte: each command run on
// the trace package's Chrome golden fixture must print
// testdata/<command>.stdout, whether the trace comes from a file or
// from stdin.
func TestGolden(t *testing.T) {
	fixture := filepath.Join("..", "..", "trace", "testdata", "chrome_golden.json")
	doc, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"summary", "stragglers"} {
		want, err := os.ReadFile(filepath.Join("testdata", cmd+".stdout"))
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{cmd, fixture}, {cmd, "-"}} {
			var stdout, stderr bytes.Buffer
			if err := run(args, bytes.NewReader(doc), &stdout, &stderr); err != nil {
				t.Fatalf("mrtrace %s: %v", strings.Join(args, " "), err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("mrtrace %s differs\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), stdout.Bytes(), want)
			}
		}
	}
}
