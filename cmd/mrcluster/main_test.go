package main

import (
	"bytes"
	"testing"

	"hpcmr/dist"
)

// TestPrintTopSKV pins wordcount's listing: heaviest first, ties by key,
// cut at -top, then the distinct-key count of the whole result.
func TestPrintTopSKV(t *testing.T) {
	for _, tc := range []struct {
		top  int
		want string
	}{
		{3, "       5  a\n       5  aa\n       2  b\n# 5 distinct keys\n"},
		{0, "# 5 distinct keys\n"},
		{9, "       5  a\n       5  aa\n       2  b\n       2  c\n       1  e\n# 5 distinct keys\n"},
	} {
		kvs := []dist.SKV{{K: "b", V: 2}, {K: "a", V: 5}, {K: "e", V: 1}, {K: "c", V: 2}, {K: "aa", V: 5}}
		var out bytes.Buffer
		printTopSKV(&out, kvs, tc.top)
		if out.String() != tc.want {
			t.Errorf("top %d:\n%s\nwant:\n%s", tc.top, out.String(), tc.want)
		}
	}
}
