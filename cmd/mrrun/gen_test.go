package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// TestGenOutputUnchanged pins both generators' bytes at seed 1 and the
// default vocabulary and width, so a dataset regenerated from the same
// flags is the same dataset. The digests are of 300-line outputs.
func TestGenOutputUnchanged(t *testing.T) {
	for _, c := range []struct {
		kind, sha256 string
		gen          func(*bufio.Writer, *rand.Rand)
	}{
		{"text", "f7555c9068e3dd3408bc7a767c6818ffc09425d306f75529e4b7f96023417513",
			func(w *bufio.Writer, rng *rand.Rand) { genText(w, rng, 300, 5000, 12) }},
		{"log", "a4330038e43bff55ab907f33e0f801ca3049db24cf27e5bf68f2cc7bd817e7a5",
			func(w *bufio.Writer, rng *rand.Rand) { genLog(w, rng, 300) }},
	} {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		c.gen(w, rand.New(rand.NewSource(1)))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sha256 {
			t.Errorf("%s: sha256 %s, want %s", c.kind, got, c.sha256)
		}
	}
}
