package dist

import (
	"encoding/binary"
	"fmt"
	"io"
)

// DefaultMaxFrame bounds a single frame's payload (64 MiB) — far above
// any control message or shuffle chunk batch a local cluster moves, and
// the ceiling that turns a corrupt length prefix into an error instead
// of an allocation.
const DefaultMaxFrame = 64 << 20

// frameHeaderLen is the big-endian payload length that precedes every
// frame.
const frameHeaderLen = 4

// frameGrowStep caps how much ReadFrame allocates ahead of the bytes
// actually arriving: a truncated stream whose prefix claims a huge
// payload costs one step of memory, not the claim.
const frameGrowStep = 64 << 10

// ErrFrameTooLarge rejects a frame whose length prefix exceeds the
// reader's limit. The prefix may be corruption or an incompatible peer;
// either way the body is never allocated or read.
type ErrFrameTooLarge struct {
	Length, Max int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("dist: frame of %d bytes exceeds limit %d", e.Length, e.Max)
}

// WriteFrame writes one length-prefixed frame: a 4-byte big-endian
// payload length followed by the payload.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame, allocating at most
// max bytes for the payload. A length prefix over max returns
// *ErrFrameTooLarge without reading (or allocating) the body; a
// truncated prefix or body returns io.ErrUnexpectedEOF (io.EOF when the
// stream ends cleanly between frames). The payload buffer grows
// incrementally as bytes arrive, so a corrupt prefix claiming a large
// length against a short stream cannot force a large allocation.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	length := int(binary.BigEndian.Uint32(hdr[:]))
	if length > max {
		return nil, &ErrFrameTooLarge{Length: length, Max: max}
	}
	if length == 0 {
		return nil, nil
	}
	payload := make([]byte, 0, min(length, frameGrowStep))
	for len(payload) < length {
		off := len(payload)
		n := min(length-off, frameGrowStep)
		payload = append(payload, make([]byte, n)...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}
