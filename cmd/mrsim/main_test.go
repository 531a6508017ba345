package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins mrsim's report byte for byte: each flag set's stdout
// and stderr must equal testdata/<name>.stdout and .stderr.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"groupby-ssd-cad-skew", "-bench groupby -data 1.2e12 -device ssd -cad -skew"},
		{"grep-lustre-50", "-bench grep -data 200e9 -input lustre -nodes 50"},
		{"lr-hdfs-delay", "-bench lr -data 100e9 -input hdfs -policy delay"},
		{"groupby-elb-local-skew", "-bench groupby -data 1.2e12 -policy elb -store local -skew"},
		{"grep-hdfs-ssd-v", "-bench grep -data 200e9 -input hdfs -device ssd -v"},
		{"groupby-none-lustre-shared", "-bench groupby -data 100e9 -device none -store lustre-shared"},
		{"grep-store-none-locality", "-bench grep -store none -policy locality"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(tc.args), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, out := range []struct {
			stream string
			got    []byte
		}{{"stdout", stdout.Bytes()}, {"stderr", stderr.Bytes()}} {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+"."+out.stream))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.got, want) {
				t.Errorf("mrsim %s: %s differs\ngot:\n%s\nwant:\n%s", tc.args, out.stream, out.got, want)
			}
		}
	}
}
