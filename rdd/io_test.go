package rdd

import (
	"os"
	"strings"
	"testing"
)

// FuzzReadSplit fuzzes the TextFile split-boundary rule: for any file
// content and partition count, the union of all splits must reproduce
// exactly the file's lines — no loss, no duplication.
func FuzzReadSplit(f *testing.F) {
	f.Add("a\nb\nc", 2)
	f.Add("", 1)
	f.Add("\n\n\n", 3)
	f.Add("single line no newline", 4)
	f.Add("x\ny\n", 5)
	f.Add(strings.Repeat("line\n", 50), 7)
	f.Fuzz(func(t *testing.T, content string, parts int) {
		if parts < 1 || parts > 16 || len(content) > 1<<16 {
			t.Skip()
		}
		// Normalize: readSplit works on byte offsets of the raw file.
		dir := t.TempDir()
		path := dir + "/f.txt"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		size := int64(len(content))
		if size == 0 {
			return
		}
		if int64(parts) > size {
			parts = int(size)
		}
		var got []string
		for p := 0; p < parts; p++ {
			err := readSplit(path, size, p, parts, func(ch any) {
				got = append(got, ch.([]string)...)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		want := splitLines(content)
		if len(got) != len(want) {
			t.Fatalf("content %q parts %d: got %d lines %q, want %d %q",
				content, parts, len(got), got, len(want), want)
		}
		// Order across splits is by offset; compare as multisets to be
		// safe against permutations of equal-offset boundaries.
		gm := map[string]int{}
		for _, l := range got {
			gm[l]++
		}
		for _, l := range want {
			gm[l]--
		}
		for l, n := range gm {
			if n != 0 {
				t.Fatalf("content %q parts %d: line %q off by %d", content, parts, l, n)
			}
		}
	})
}

// splitLines is the reference implementation: newline-terminated lines
// without the terminator; a trailing fragment counts as a line.
func splitLines(content string) []string {
	if content == "" {
		return nil
	}
	parts := strings.Split(content, "\n")
	if parts[len(parts)-1] == "" {
		parts = parts[:len(parts)-1]
	}
	return parts
}
