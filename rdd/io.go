package rdd

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"hpcmr/engine"
)

// TextFile reads a local file as an RDD of lines, split into parts byte
// ranges aligned on line boundaries: each task seeks to its range,
// skips the partial first line (owned by the previous split), and reads
// through the end of the line straddling its upper bound — the
// HDFS-split convention.
func TextFile(c *Context, path string, parts int) (*RDD[string], error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("rdd: TextFile: %w", err)
	}
	size := info.Size()
	if parts <= 0 {
		parts = c.executors()
	}
	if parts < 1 {
		parts = 1
	}
	if int64(parts) > size && size > 0 {
		parts = int(size)
	}
	execs := c.executors()
	prefs := executorPrefs(execs)
	n := newNode(c, parts, nil, nil,
		func(part int, _ *engine.TaskContext, sink func(any)) error {
			return readSplit(path, size, part, parts, sink)
		},
		func(part int) []int { return prefs[part%execs] },
	)
	return &RDD[string]{n: n}, nil
}

// readSplit reads the lines owned by one split and sinks them as a
// single chunk.
func readSplit(path string, size int64, part, parts int, sink func(any)) error {
	lo := size * int64(part) / int64(parts)
	hi := size * int64(part+1) / int64(parts)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(lo, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 256<<10)
	pos := lo
	if lo > 0 {
		// Skip the first (possibly partial) line: it belongs to the
		// previous split, which reads through its upper boundary.
		skipped, err := r.ReadString('\n')
		pos += int64(len(skipped))
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	var lines []string
	flush := func() {
		if len(lines) > 0 {
			sink(lines)
		}
	}
	// A line belongs to this split when it starts at pos <= hi; the
	// next split skips it as its first line.
	for pos <= hi {
		line, err := r.ReadString('\n')
		if len(line) > 0 {
			pos += int64(len(line))
			if line[len(line)-1] == '\n' {
				line = line[:len(line)-1]
			}
			lines = append(lines, line)
		}
		if err == io.EOF {
			flush()
			return nil
		}
		if err != nil {
			return err
		}
	}
	flush()
	return nil
}
