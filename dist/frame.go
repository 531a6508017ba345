package dist

import (
	"encoding/binary"
	"io"

	"hpcmr/internal/spill"
)

// frameHeaderLen is the big-endian payload length that precedes every
// frame.
const frameHeaderLen = 4

// frameGrowStep caps how much ReadFrame allocates ahead of the bytes
// actually arriving: a truncated stream whose prefix claims a huge
// payload costs one step of memory, not the claim.
const frameGrowStep = 64 << 10

// ReadFrame reads one length-prefixed frame — a 4-byte big-endian
// payload length, then the payload — allocating at most max bytes for
// the payload (spill.MaxFrame when max <= 0). A length prefix over max,
// corruption or an incompatible peer, returns *spill.ErrFrameTooLarge
// without reading (or allocating) the body; a truncated prefix or body
// returns io.ErrUnexpectedEOF (io.EOF when the stream ends cleanly
// between frames). The payload buffer grows incrementally as bytes
// arrive, so a corrupt prefix claiming a large length against a short
// stream cannot force a large allocation.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = spill.MaxFrame
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
		return nil, &spill.ErrFrameTooLarge{Length: length, Max: max}
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
